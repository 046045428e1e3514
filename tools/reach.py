#!/usr/bin/env python
"""Reachability ledger: which functions under ``src/repro`` no driver calls.

Runs the repository's non-test drivers (the examples, the corpus
validator, the benchmark suites and CLIs, talkbench's workloads) with a
call profiler installed in every Python process they start, then lists
each function definition under ``src/repro`` whose code never ran,
grouped by module, with its body lines (first decorator or ``def`` line
to the last line).  An unreached definition that a kept category covers
(``KEPT`` below: Protocol stubs, safety code only tests reach, SQL forms
no driver sends, ...) is marked with that category; the others are
candidates for deletion.

The profiler (``sys.setprofile`` and ``threading.setprofile``) is
installed by a generated ``sitecustomize.py`` placed first on
``PYTHONPATH``, so subprocesses and spawned or forked children are
traced too.  Each process writes the functions it entered when it exits,
including through ``os._exit`` (forked multiprocessing children and shard
workers leave that way, which skips ``atexit``).  A process killed by a
signal writes nothing.  Drivers run from the checkout that holds this
file; a driver's exit status is recorded and never stops the run (timing
budgets can miss under the profiler).

Usage::

    python tools/reach.py                        # every driver, then the ledger
    python tools/reach.py --list                 # the drivers' names
    python tools/reach.py --traces /tmp/r        # keep the per-process traces
    python tools/reach.py --traces /tmp/r --no-run   # ledger from kept traces

The whole set takes about eight minutes on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
ROOT = REPO / "src" / "repro"

#: Generated as ``sitecustomize.py``; ``{out}`` and ``{prefix}`` are filled in.
_SITE = '''\
"""Records every function entered under one directory (tools/reach.py)."""
import atexit
import os
import sys
import tempfile
import threading

_OUT = {out!r}
_PREFIX = {prefix!r}
_entered = set()
_add = _entered.add


def _profile(frame, event, arg):
    if event == "call":
        _add(frame.f_code)


def _dump():
    lines = set()
    for code in list(_entered):
        name = code.co_filename
        if not name.startswith(_PREFIX):
            name = os.path.abspath(name)
            if not name.startswith(_PREFIX):
                continue
        lines.add(f"{{name}}\\t{{code.co_firstlineno}}\\n")
    handle, path = tempfile.mkstemp(suffix=".trace", dir=_OUT)
    with os.fdopen(handle, "w") as out:
        out.writelines(sorted(lines))


_exit = os._exit


def _exit_traced(status):
    try:
        _dump()
    finally:
        _exit(status)


os._exit = _exit_traced
atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


@dataclass(frozen=True)
class Driver:
    name: str
    argv: Tuple[str, ...]
    env: Tuple[Tuple[str, str], ...] = ()


def drivers(out_dir: Path) -> List[Driver]:
    """The non-test drivers, in run order; ``out_dir`` takes their outputs."""
    python = sys.executable
    found = [Driver(f"examples/{path.name}", (python, str(path)))
             for path in sorted((REPO / "examples").glob("*.py"))]
    corpus = (python, str(REPO / "tools" / "validate_corpus.py"))
    found.append(Driver("validate_corpus", corpus + ("--json", str(out_dir / "corpus.json"))))
    found.append(Driver("validate_corpus REPRO_ORACLE=1", corpus, (("REPRO_ORACLE", "1"),)))
    found.append(Driver("validate_corpus --drill", corpus + ("--demo", "--no-narration", "--drill")))
    found.append(Driver("wal_dump --demo", (python, str(REPO / "tools" / "wal_dump.py"), "--demo")))
    bench = REPO / "benchmarks"
    paper = sorted(bench.glob("bench_fig*.py")) + sorted(bench.glob("bench_sec*.py"))
    paper += sorted(bench.glob("bench_ablation*.py")) + [bench / "bench_domains.py"]
    perf = [bench / f"bench_perf_{name}.py"
            for name in ("narration", "translation", "compiled", "pipeline")]
    perf.append(bench / "bench_parameterised.py")
    for name, suites in (("paper suites", paper), ("perf suites", perf)):
        found.append(Driver(name, (python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                   "--benchmark-disable", *map(str, suites))))
    found.append(Driver("run_benchmarks --quick", (
        python, str(bench / "run_benchmarks.py"), "--quick", "--repeats", "1",
        "--output", str(out_dir / "bench.json"))))
    found.append(Driver("shard smoke", (
        python, str(bench / "bench_service_throughput.py"),
        "--shard-only", "--quick", "--shard-workers", "2")))
    for workload in ("verify_warm", "verify_cold", "data_entry", "verify_sharded"):
        found.append(Driver(f"talkbench {workload}", (
            python, str(REPO / "talkbench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", "0")))
    return found


def trace(commands: Iterable[Driver], trace_dir: Path, prefix: Path,
          path: Sequence[Path], cwd: Path, timeout: float = 3600.0
          ) -> Iterator[Tuple[str, Optional[int], float]]:
    """Run each command with the profiler; yield ``(name, exit status, seconds)``.

    ``prefix`` bounds the recorded functions (a directory), ``path`` is put
    on ``PYTHONPATH`` after the profiler's ``sitecustomize``.  A command
    that outlives ``timeout`` is killed and recorded with status ``None``.
    """
    site = trace_dir / "site"
    site.mkdir(parents=True, exist_ok=True)
    (site / "sitecustomize.py").write_text(
        _SITE.format(out=str(trace_dir), prefix=str(prefix) + os.sep))
    for command in commands:
        env = dict(os.environ)
        env.update(command.env)
        env["PYTHONPATH"] = os.pathsep.join(map(str, [site, *path]))
        started = time.perf_counter()
        try:
            done = subprocess.run(command.argv, cwd=cwd, env=env, timeout=timeout,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            status: Optional[int] = done.returncode
        except subprocess.TimeoutExpired:
            status = None
        yield command.name, status, time.perf_counter() - started


def reached(trace_dir: Path) -> Set[Tuple[str, int]]:
    """``(file, first line)`` of every code object any traced process entered."""
    entered = set()
    for record in trace_dir.glob("*.trace"):
        for line in record.read_text().splitlines():
            name, _, first = line.rpartition("\t")
            entered.add((name, int(first)))
    return entered


@dataclass(frozen=True)
class Definition:
    module: str  # path relative to the scanned root's parent, e.g. repro/sql/ast.py
    qualname: str
    first: int  # first decorator line, else the def line: the code's co_firstlineno
    lines: int


def definitions(root: Path) -> Dict[Tuple[str, int], Definition]:
    """Every function definition under ``root``, keyed by ``(file, first line)``."""
    found = {}
    for source in sorted(root.rglob("*.py")):
        module = source.relative_to(root.parent).as_posix()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                    qualname = prefix + child.name
                    found[(str(source), first)] = Definition(
                        module, qualname, first, child.end_lineno - first + 1)
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(source.read_text(), str(source)), "")
    return found


#: Unreached definitions that stay, as ``module:qualname`` per category
#: (first match wins).  Only the Protocol stubs are matched by a pattern:
#: every other entry names one function, so a function that stops being
#: reached later shows up as a candidate for deletion.
KEPT: List[Tuple[str, Tuple[str, ...]]] = [
    ("storage/api.py Protocol stubs", ("repro/storage/api.py:TableStorage.*",)),
    ("service safety code: fault drills, durable shard checkpoints, resilience trips", (
        "repro/service/faults.py:FaultPlan.active",
        "repro/service/faults.py:parse_faults",
        "repro/service/faults.py:corrupt_frame",
        "repro/service/faults.py:FaultInjector._roll",
        "repro/service/faults.py:FaultInjector.crash_due",
        "repro/service/faults.py:FaultInjector.crash",
        "repro/service/faults.py:FaultInjector.stall_for",
        "repro/service/faults.py:FaultInjector.response_fate",
        "repro/service/faults.py:FaultInjector.wal_crash_due",
        "repro/service/faults.py:FaultInjector.fsync_stall_for",
        "repro/service/faults.py:FaultInjector.schedule",
        "repro/service/sharding/router.py:ShardRouter.checkpoint",
        "repro/service/sharding/router.py:ShardRouter._open_wal",
        "repro/service/sharding/router.py:ShardRouter._checkpoint_locked",
        "repro/service/service.py:NarrationSession.checkpoint",
        "repro/service/service.py:NarrationSession.snapshot_to",
        "repro/service/resilience.py:CircuitBreaker.force_open",
        "repro/service/resilience.py:CircuitBreaker._trip",
        "repro/service/resilience.py:AdmissionController.shed_expired_in_queue",
        "repro/service/sharding/supervisor.py:WorkerHandle.wait_applied",
        "repro/service/sharding/supervisor.py:WorkerHandle.give_up",
    )),
    ("SQL forms the parser accepts that no driver sends", (
        "repro/engine/compile.py:ExpressionCompiler._compile_binary.<locals>.run_and",
        "repro/engine/compile.py:ExpressionCompiler._compile_binary.<locals>.run_or",
        "repro/engine/compile.py:ExpressionCompiler._compile_binary.<locals>.run_arith",
        "repro/engine/compile.py:ExpressionCompiler._compile_binary.<locals>.run_div",
        "repro/engine/compile.py:ExpressionCompiler._compile_binary.<locals>.run_mod",
        "repro/engine/compile.py:ExpressionCompiler._compile_binary.<locals>.run_concat",
        "repro/engine/compile.py:ExpressionCompiler._compile_unary",
        "repro/engine/compile.py:ExpressionCompiler._compile_unary.<locals>.run_not",
        "repro/engine/compile.py:ExpressionCompiler._compile_unary.<locals>.run_neg",
        "repro/engine/compile.py:ExpressionCompiler._compile_function.<locals>.run_coalesce",
        "repro/engine/compile.py:ExpressionCompiler._compile_is_null",
        "repro/engine/compile.py:ExpressionCompiler._compile_in_list",
        "repro/engine/compile.py:ExpressionCompiler._compile_in_list.<locals>.run_literal",
        "repro/engine/compile.py:ExpressionCompiler._compile_in_list.<locals>.run",
        "repro/engine/compile.py:ExpressionCompiler._compile_case",
        "repro/engine/compile.py:ExpressionCompiler._compile_case.<locals>.run",
        "repro/engine/compile.py:ExpressionCompiler._bind.<locals>.unbound",
        "repro/engine/compile.py:ExpressionCompiler._compile_exists.<locals>.run",
        "repro/engine/compile.py:_raising",
        "repro/engine/compile.py:_raising.<locals>.run",
        "repro/engine/executor.py:Executor._build_sort",
        "repro/engine/executor.py:Executor._build_sort.<locals>.run",
        "repro/engine/executor.py:Executor._build_sort.<locals>.run.<locals>.sort_key",
        "repro/engine/executor.py:Executor._projector.<locals>.project",
        "repro/engine/executor.py:_distinct",
        "repro/engine/executor.py:_distinct.<locals>.run",
        "repro/engine/executor.py:_limit",
        "repro/engine/executor.py:_limit.<locals>.run",
        "repro/engine/executor.py:_order_value",
        "repro/engine/executor.py:_empty_row",
        "repro/engine/evaluator.py:ExpressionEvaluator._unary",
        "repro/engine/evaluator.py:ExpressionEvaluator._between",
        "repro/engine/evaluator.py:ExpressionEvaluator._in_list",
        "repro/engine/evaluator.py:ExpressionEvaluator._case",
        "repro/engine/evaluator.py:like_match",
        "repro/engine/vector.py:_is_null_test",
        "repro/engine/vector.py:_is_null_test.<locals>.test",
        "repro/sql/parser.py:Parser._parse_case",
        "repro/sql/parser.py:Parser._parse_int_literal",
        "repro/sql/parser.py:Parser._parse_additive",
        "repro/sql/lexer.py:Lexer._quoted_identifier",
        "repro/sql/ast.py:UnaryOp.children",
        "repro/sql/ast.py:IsNull.children",
        "repro/sql/ast.py:InList.children",
        "repro/sql/ast.py:CaseExpression.children",
        "repro/sql/ast.py:OrderItem.children",
        "repro/sql/ast.py:InsertStatement.children",
        "repro/sql/ast.py:UpdateStatement.children",
        "repro/sql/ast.py:DeleteStatement.children",
        "repro/sql/ast.py:CreateViewStatement.children",
        "repro/sql/printer.py:_order_item_to_sql",
        "repro/sql/printer.py:_insert_to_sql",
        "repro/sql/printer.py:_update_to_sql",
        "repro/sql/printer.py:_delete_to_sql",
        "repro/querygraph/builder.py:QueryGraphBuilder._validate_subselect",
    )),
    ("reference oracles", (
        "repro/sql/validator.py:ResolvedColumn.qualified",
        "repro/sql/validator.py:ValidationResult.relation_for",
        "repro/sql/validator.py:Validator.validate",
        "repro/sql/validator.py:Validator._validate_insert",
        "repro/sql/validator.py:Validator._validate_update",
        "repro/sql/validator.py:Validator._validate_delete",
        "repro/sql/validator.py:Validator._require_relation",
        "repro/sql/validator.py:validate",
        "repro/sql/parser.py:parse_sql_reference",
        "repro/content/ranking.py:score_tuple",
    )),
    ("error-reporting paths", (
        "repro/engine/evaluator.py:column_error",
        "repro/engine/evaluator.py:one_argument_error",
        "repro/service/sharding/worker.py:_wire_error",
        "repro/validation/harness.py:_canonical_error",
        "repro/validation/report.py:QueryOutcome.to_dict",
        "repro/validation/report.py:Mismatch.to_dict",
        "repro/validation/report.py:ValidationReport.mismatches",
    )),
    ("engine/plan.py explain helpers", (
        "repro/engine/plan.py:PlanNode.describe",
        "repro/engine/plan.py:ScanNode.describe",
        "repro/engine/plan.py:FilterNode.describe",
        "repro/engine/plan.py:JoinNode.describe",
        "repro/engine/plan.py:AggregateNode.describe",
        "repro/engine/plan.py:ProjectNode.describe",
        "repro/engine/plan.py:DistinctNode.describe",
        "repro/engine/plan.py:SortNode.describe",
        "repro/engine/plan.py:LimitNode.describe",
        "repro/engine/plan.py:PlanNode.children",
        "repro/engine/plan.py:FilterNode.children",
        "repro/engine/plan.py:JoinNode.children",
        "repro/engine/plan.py:AggregateNode.children",
        "repro/engine/plan.py:ProjectNode.children",
        "repro/engine/plan.py:DistinctNode.children",
        "repro/engine/plan.py:SortNode.children",
        "repro/engine/plan.py:LimitNode.children",
        "repro/engine/plan.py:LogicalPlan.explain",
        "repro/engine/plan.py:LogicalPlan.explain.<locals>.walk",
    )),
    ("storage-engine, WAL and durability internals", (
        "repro/storage/engine/base.py:BaseTableStorage._store_row",
        "repro/storage/engine/base.py:BaseTableStorage._get_row",
        "repro/storage/engine/base.py:BaseTableStorage._pop_row",
        "repro/storage/engine/base.py:BaseTableStorage._iter_items",
        "repro/storage/engine/base.py:BaseTableStorage._clear_rows",
        "repro/storage/engine/base.py:BaseTableStorage._row_count",
        "repro/storage/engine/base.py:BaseTableStorage.has_row",
        "repro/storage/engine/base.py:BaseTableStorage.rows_with_ids",
        "repro/storage/engine/base.py:BaseTableStorage.column",
        "repro/storage/engine/base.py:BaseTableStorage.insert_many",
        "repro/storage/engine/base.py:BaseTableStorage.indexes",
        "repro/storage/engine/columnar.py:ColumnarStorage._pop_row",
        "repro/storage/engine/columnar.py:ColumnarStorage.has_row",
        "repro/storage/engine/columnar.py:ColumnarStorage.column",
        "repro/storage/engine/columnar.py:ColumnarStorage.validity",
        "repro/storage/engine/columnar.py:ColumnarStorage.stats",
        "repro/storage/engine/columnar.py:ColumnarStorage._compact",
        "repro/storage/engine/paged.py:DiskManager.page_count",
        "repro/storage/engine/paged.py:DiskManager.close",
        "repro/storage/engine/paged.py:SlottedPage.delete",
        "repro/storage/engine/paged.py:SlottedPage.update_in_place",
        "repro/storage/engine/paged.py:DiskManager.flush",
        "repro/storage/engine/paged.py:BufferManager.flush",
        "repro/storage/engine/paged.py:BufferManager.resident",
        "repro/storage/engine/paged.py:PagedHeapStorage._pop_row",
        "repro/storage/engine/paged.py:PagedHeapStorage.has_row",
        "repro/storage/engine/paged.py:PagedHeapStorage.flush",
        "repro/storage/engine/paged.py:PagedHeapStorage.close",
        "repro/storage/wal.py:WriteAheadLog.set_base",
        "repro/storage/durability.py:DurabilityManager.recovered",
        "repro/storage/durability.py:DurabilityManager.recovery_report",
        "repro/storage/database.py:Database.wal",
        "repro/content/ranking.py:ConnectivityTracker.table_truncated",
    )),
    ("dunder methods", ("repro/storage/row.py:_hashable",)),
    ("named in repro.__all__, docs/api.md, README.md or docs/architecture.md", (
        "repro/templates/parser.py:parse_list_template",
        "repro/templates/parser.py:_split_sections",
        "repro/templates/parser.py:_parse_braced_template",
        "repro/templates/parser.py:_parse_last_section",
        "repro/templates/parser.py:_extract_braces",
        "repro/engine/executor.py:Executor.explain",
        "repro/engine/executor.py:Executor.invalidate_caches",
        "repro/engine/executor.py:execute",
        "repro/engine/plan.py:plan_query",
        "repro/service/service.py:NarrationService.stats",
        "repro/validation/harness.py:default_modes",
        "repro/content/presets.py:default_spec",
        "repro/datasets/domains/__init__.py:all_domains",
        "repro/query_nl/translator.py:translate_query",
        # Nothing in the package calls it; talkbench/trace.py wraps it,
        # so renaming it breaks traced runs.
        "repro/query_nl/translator.py:QueryTranslator.try_fast_translate",
        "repro/graph/schema_graph.py:build_schema_graph",
        "repro/storage/engine/base.py:BaseTableStorage.remove_observer",
    )),
    ("the bulk loader and the type coercion only it asks for", (
        "repro/storage/loader.py:load_csv_text",
        "repro/storage/loader.py:load_csv_file",
        "repro/storage/loader.py:load_records",
        "repro/storage/loader.py:dump_records",
        "repro/catalog/types.py:coerce_value",
        "repro/catalog/types.py:_coerce_bool",
        "repro/catalog/types.py:_coerce_date",
    )),
    ("state that differential tests read from a compiled path", (
        "repro/query_nl/translator.py:QueryTranslation.classification",
        "repro/query_nl/translator.py:QueryTranslator._render_plan.<locals>.graph_factory",
        "repro/content/ranking.py:ConnectivityTracker.connectivity",
    )),
]


def dunder(definition: Definition) -> bool:
    name = definition.qualname.rpartition(".")[2]
    return name.startswith("__") and name.endswith("__")


def category(definition: Definition) -> Optional[str]:
    """The kept category that covers an unreached definition, if any."""
    if dunder(definition):
        return "dunder methods"
    key = f"{definition.module}:{definition.qualname}"
    for name, patterns in KEPT:
        if any(fnmatch.fnmatchcase(key, pattern) for pattern in patterns):
            return name
    return None


def report(found: Dict[Tuple[str, int], Definition], entered: Set[Tuple[str, int]]) -> str:
    missed = [found[key] for key in sorted(found, key=lambda k: (found[k].module, k[1]))
              if key not in entered]
    total_lines = sum(d.lines for d in found.values())
    out = [f"unreached: {len(missed)} of {len(found)} functions "
           f"({sum(d.lines for d in missed)} of {total_lines} body lines)"]
    kept: Dict[str, List[Definition]] = {}
    open_items: Dict[str, List[Definition]] = {}
    for definition in missed:
        name = category(definition)
        if name is None:
            open_items.setdefault(definition.module, []).append(definition)
        else:
            kept.setdefault(name, []).append(definition)
    out.append("kept:")
    for name in dict.fromkeys(["dunder methods", *(name for name, _ in KEPT)]):
        items = kept.get(name, [])
        out.append(f"  {len(items):4d} functions {sum(d.lines for d in items):5d} lines  {name}")
    remaining = [d for items in open_items.values() for d in items]
    out.append(f"not kept: {len(remaining)} functions, {sum(d.lines for d in remaining)} "
               f"body lines in {len(open_items)} modules")
    for module, items in sorted(open_items.items(), key=lambda kv: -sum(d.lines for d in kv[1])):
        out.append(f"{module}  ({len(items)} functions, {sum(d.lines for d in items)} lines)")
        for definition in items:
            out.append(f"  {definition.first:5d}  {definition.lines:4d}  {definition.qualname}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="list the drivers and exit")
    parser.add_argument("--traces", type=Path,
                        help="keep the per-process traces here (default: a temporary directory)")
    parser.add_argument("--no-run", action="store_true",
                        help="build the ledger from the traces already in --traces")
    args = parser.parse_args(argv)
    if args.no_run and args.traces is None:
        parser.error("--no-run needs --traces")
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        trace_dir = (args.traces or Path(scratch)).resolve()
        trace_dir.mkdir(parents=True, exist_ok=True)
        chosen = drivers(trace_dir)
        if args.list:
            print("\n".join(d.name for d in chosen))
            return 0
        if not args.no_run:
            for name, status, seconds in trace(chosen, trace_dir, ROOT, [REPO / "src"], REPO):
                shown = "timeout" if status is None else f"exit {status}"
                print(f"{name:40s} {shown:8s} {seconds:7.1f} s", flush=True)
        print(report(definitions(ROOT), reached(trace_dir)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
