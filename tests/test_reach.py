"""tools/reach.py: the reachability ledger's tracer, over a small package.

A driver imports a throwaway package, calls one function itself, one in
a forked ``multiprocessing`` child and one in a ``subprocess`` child, and
leaves one function uncalled.  The ledger must count the first three as
reached (the forked child leaves through ``os._exit``, which skips
``atexit``) and list the fourth.  The other tests start no process: they
check the kept categories, the ledger's layout, the trace reader and the
driver list.
"""

import fnmatch
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import reach  # noqa: E402

MODULE = '''\
import functools


def called():
    return 1


@functools.lru_cache(maxsize=None)
def decorated():
    return 2


def in_fork():
    return 3


def in_subprocess():
    return 4


def uncalled():
    return 5
'''

DRIVER = '''\
import multiprocessing
import subprocess
import sys

from toypkg import mod

if __name__ == "__main__":
    mod.called()
    mod.decorated()
    child = multiprocessing.get_context("fork").Process(target=mod.in_fork)
    child.start()
    child.join(30)
    assert child.exitcode == 0
    subprocess.run([sys.executable, "-c", "from toypkg import mod; mod.in_subprocess()"],
                   check=True, timeout=30)
'''


def test_the_ledger_follows_forked_and_spawned_children(tmp_path):
    package = tmp_path / "src" / "toypkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (tmp_path / "drive.py").write_text(DRIVER)
    traces = tmp_path / "traces"
    driver = reach.Driver("drive", (sys.executable, str(tmp_path / "drive.py")))

    runs = list(reach.trace([driver], traces, package, [tmp_path / "src"], tmp_path, timeout=60))

    assert runs[0][:2] == ("drive", 0)
    found = reach.definitions(package)
    entered = reach.reached(traces)
    names = {found[key].qualname: key in entered for key in found}
    assert names == {
        "called": True,
        "decorated": True,
        "in_fork": True,
        "in_subprocess": True,
        "uncalled": False,
    }
    decorated = next(d for d in found.values() if d.qualname == "decorated")
    assert MODULE.splitlines()[decorated.first - 1].startswith("@functools")
    ledger = reach.report(found, entered)
    assert "uncalled" in ledger and "in_fork" not in ledger
    assert ledger.startswith("unreached: 1 of 5 functions")


def test_definitions_name_methods_and_nested_functions(tmp_path):
    source = tmp_path / "pkg" / "m.py"
    source.parent.mkdir()
    source.write_text(textwrap.dedent('''\
        class Box:
            @property
            def size(self):
                def inner():
                    return 0
                return inner()
        '''))
    found = reach.definitions(tmp_path / "pkg")
    assert {(d.module, d.qualname, d.first, d.lines) for d in found.values()} == {
        ("pkg/m.py", "Box.size", 2, 5),
        ("pkg/m.py", "Box.size.<locals>.inner", 4, 2),
    }


def definition(module, qualname, lines=3):
    return reach.Definition(module, qualname, 1, lines)


def test_kept_categories_cover_dunders_stubs_and_listed_functions():
    assert reach.category(definition("repro/catalog/relation.py", "Relation.__eq__")) == (
        "dunder methods"
    )
    assert reach.category(definition("repro/storage/api.py", "TableStorage.rows")) == (
        "storage/api.py Protocol stubs"
    )
    assert reach.category(
        definition("repro/engine/executor.py", "Executor._build_sort.<locals>.run")
    ) == "SQL forms the parser accepts that no driver sends"
    assert reach.category(definition("repro/engine/executor.py", "Executor.execute_sql")) is None
    assert reach.category(definition("repro/engine/executor.py", "__init__helper")) is None
    # A module with kept functions keeps no others.
    assert reach.category(definition("repro/engine/compile.py", "ExpressionCompiler.new")) is None
    assert reach.category(definition("repro/storage/engine/base.py", "BaseTableStorage.new")) is None


def test_every_kept_entry_names_a_definition():
    keys = {f"{d.module}:{d.qualname}" for d in reach.definitions(reach.ROOT).values()}
    for name, patterns in reach.KEPT:
        for pattern in patterns:
            assert fnmatch.filter(keys, pattern), (name, pattern)


def test_report_counts_kept_definitions_and_lists_the_rest_by_module():
    found = {
        ("a.py", 1): definition("repro/a.py", "Thing.__repr__", 2),
        ("a.py", 5): definition("repro/a.py", "reached", 4),
        ("a.py", 9): definition("repro/a.py", "small", 3),
        ("b.py", 1): definition("repro/b.py", "large", 10),
        ("b.py", 20): definition("repro/storage/api.py", "TableStorage.rows", 5),
    }
    lines = reach.report(found, {("a.py", 5)}).splitlines()
    assert lines[0] == "unreached: 4 of 5 functions (20 of 24 body lines)"
    assert "     1 functions     2 lines  dunder methods" in lines
    assert "     1 functions     5 lines  storage/api.py Protocol stubs" in lines
    rest = lines[lines.index("not kept: 2 functions, 13 body lines in 2 modules"):]
    # Largest module first, each definition under it with its first line and size.
    assert rest[1:] == [
        "repro/b.py  (1 functions, 10 lines)",
        "      1    10  large",
        "repro/a.py  (1 functions, 3 lines)",
        "      1     3  small",
    ]


def test_reached_unions_every_trace_file(tmp_path):
    (tmp_path / "one.trace").write_text("/x/a.py\t3\n/x/a.py\t10\n")
    (tmp_path / "two.trace").write_text("/x/a.py\t10\n/x/b.py\t7\n")
    (tmp_path / "notes.txt").write_text("/x/ignored.py\t1\n")
    assert reach.reached(tmp_path) == {("/x/a.py", 3), ("/x/a.py", 10), ("/x/b.py", 7)}


def test_list_prints_every_example_and_workload(capsys):
    assert reach.main(["--list"]) == 0
    names = capsys.readouterr().out.splitlines()
    examples = sorted(path.name for path in (REPO / "examples").glob("*.py"))
    assert [name for name in names if name.startswith("examples/")] == [
        f"examples/{name}" for name in examples
    ]
    for name in ("validate_corpus", "validate_corpus REPRO_ORACLE=1", "validate_corpus --drill",
                 "wal_dump --demo", "paper suites", "perf suites", "run_benchmarks --quick",
                 "shard smoke"):
        assert name in names
    assert [name for name in names if name.startswith("talkbench ")] == [
        "talkbench verify_warm", "talkbench verify_cold", "talkbench data_entry",
        "talkbench verify_sharded",
    ]
    assert len(names) == len(set(names))


def test_no_run_needs_a_trace_directory(capsys):
    with pytest.raises(SystemExit) as raised:
        reach.main(["--no-run"])
    assert raised.value.code == 2
    assert "--no-run needs --traces" in capsys.readouterr().err
