"""Docs health in tier-1: links resolve, named code exists, the quickstart runs.

The full example-run pass lives in CI (``python tools/check_docs.py``);
here we keep the fast guarantees: every relative link in ``README.md``
and ``docs/*.md`` points at a file that exists, every ``repro.…`` name
they put in backticks resolves by import, the documents the acceptance
criteria name are present, and the README's quickstart code block
executes as written.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_docs  # noqa: E402
from check_docs import broken_links, doc_files, resolves, unresolved_names  # noqa: E402


def test_docs_exist():
    for required in ("README.md", "docs/architecture.md", "docs/api.md",
                     "docs/performance.md"):
        assert (REPO / required).is_file(), f"{required} is missing"


def test_every_relative_link_resolves():
    broken = broken_links()
    assert not broken, f"broken documentation links: {broken}"


def test_every_documented_repro_name_resolves():
    unresolved = unresolved_names()
    assert not unresolved, f"docs name code that does not exist: {unresolved}"


def test_name_resolution_tells_modules_attributes_and_missing_apart():
    assert resolves("repro.sql.shape")
    assert resolves("repro.sql.shape.shape_hash")
    assert resolves("repro.storage.api.TableStorage")
    assert not resolves("repro.sql.shape.no_such_name")
    assert not resolves("repro.no_such_module")


def test_names_come_from_inline_code_spans_only(tmp_path, monkeypatch):
    document = tmp_path / "doc.md"
    document.write_text(
        "Call `repro.sql.parse_select(text)` or `x = repro.engine.Executor`.\n"
        "Prose repro.not_in_code is skipped, and so is `myrepro.engine`.\n"
        "```python\nimport repro.in_a_fence\n```\n"
    )
    monkeypatch.setattr(check_docs, "doc_files", lambda: [document])
    assert check_docs.documented_names() == [
        (document, "repro.sql.parse_select"),
        (document, "repro.engine.Executor"),
    ]
    assert check_docs.unresolved_names() == []


def test_doc_files_cover_readme_and_docs():
    names = {path.name for path in doc_files()}
    assert "README.md" in names and "architecture.md" in names


def test_readme_quickstart_block_runs():
    text = (REPO / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert blocks, "README.md has no python quickstart block"
    # The first python block is the 30-second quickstart; it must be
    # copy-pasteable as-is.
    exec(compile(blocks[0], "README.md#quickstart", "exec"), {})
