#!/usr/bin/env python
"""Docs health check: links resolve, examples run, named code exists.

Three passes, all required by CI (the ``docs`` job); the tier-1 suite
(``tests/test_docs.py``) runs the links and names passes:

* **Links** — every markdown link/image target in ``README.md`` and
  ``docs/*.md`` that is *relative* (no URL scheme, not an in-page
  anchor) must point at an existing file or directory.
* **Examples** — every ``examples/*.py`` must run to completion (exit
  code 0) under the same interpreter that runs the tier-1 tests, with
  ``src/`` on the path.  The operator-tool demos documented in the docs
  (currently ``tools/wal_dump.py --demo``) run in the same pass under
  the same rule.
* **Names** — every dotted ``repro.…`` name inside an inline code span
  of ``README.md`` and ``docs/*.md`` must resolve: its longest module
  prefix imports and the rest are attributes, so the docs cannot name
  code that was deleted or renamed.

Usage::

    python tools/check_docs.py            # every pass
    python tools/check_docs.py --links    # link check only
    python tools/check_docs.py --examples # example + tool-demo runs only
    python tools/check_docs.py --names    # named-code check only
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

REPO = Path(__file__).resolve().parent.parent

#: Inline markdown links and images: ``[text](target)`` / ``![alt](target)``.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Targets that are not repository paths.
_EXTERNAL = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")  # http:, https:, mailto:, ...


def doc_files() -> List[Path]:
    files = [REPO / "README.md"]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def broken_links() -> List[Tuple[Path, str]]:
    """``(document, target)`` for every relative link that does not resolve."""
    broken: List[Tuple[Path, str]] = []
    for document in doc_files():
        text = document.read_text()
        # Fenced code blocks routinely contain bracketed text that is not
        # a link (type hints, slices); strip them before matching.
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if _EXTERNAL.match(target) or target.startswith("#"):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (document.parent / path).resolve()
            if not resolved.exists():
                broken.append((document, target))
    return broken


#: A dotted ``repro`` name, not part of a longer dotted word.
_NAME_RE = re.compile(r"(?<![\w.])repro(?:\.\w+)+")


def documented_names() -> List[Tuple[Path, str]]:
    """``(document, name)`` for every ``repro.…`` name in an inline code span."""
    found: List[Tuple[Path, str]] = []
    for document in doc_files():
        text = re.sub(r"```.*?```", "", document.read_text(), flags=re.DOTALL)
        for span in re.findall(r"`([^`\n]+)`", text):
            found.extend((document, name) for name in _NAME_RE.findall(span))
    return found


def resolves(name: str) -> bool:
    """Whether the longest importable prefix of ``name`` has the rest as attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as error:
            if error.name != module_name:
                raise
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def unresolved_names() -> List[Tuple[Path, str]]:
    """``(document, name)`` for every documented name that does not resolve."""
    if str(REPO / "src") not in sys.path:
        sys.path.insert(0, str(REPO / "src"))
    return [(document, name) for document, name in documented_names() if not resolves(name)]


#: Operator-tool demo invocations that must run clean, like examples.
TOOL_DEMOS: List[List[str]] = [
    ["tools/wal_dump.py", "--demo"],
    ["tools/validate_corpus.py", "--demo"],
]


def run_examples() -> List[Tuple[Path, str]]:
    """``(example, stderr tail)`` for every example that fails to run."""
    failures: List[Tuple[Path, str]] = []
    environment = dict(os.environ)
    environment["PYTHONPATH"] = (
        str(REPO / "src") + os.pathsep + environment.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    runs = [[str(example)] for example in sorted((REPO / "examples").glob("*.py"))]
    runs.extend([str(REPO / part) for part in demo[:1]] + demo[1:] for demo in TOOL_DEMOS)
    for command in runs:
        result = subprocess.run(
            [sys.executable, *command],
            cwd=REPO,
            env=environment,
            capture_output=True,
            text=True,
            timeout=300,
        )
        if result.returncode != 0:
            failures.append((Path(command[0]), result.stderr.strip()[-2000:]))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--links", action="store_true", help="link check only")
    parser.add_argument("--examples", action="store_true", help="example runs only")
    parser.add_argument("--names", action="store_true", help="named-code check only")
    args = parser.parse_args(argv)
    every = not (args.links or args.examples or args.names)
    run_links = args.links or every
    run_ex = args.examples or every

    status = 0
    if run_links:
        broken = broken_links()
        for document, target in broken:
            print(f"BROKEN LINK {document.relative_to(REPO)}: {target}")
        checked = len(doc_files())
        if broken:
            status = 1
        else:
            print(f"links ok ({checked} documents)")
    if run_ex:
        failures = run_examples()
        for example, stderr in failures:
            print(f"EXAMPLE FAILED {example.relative_to(REPO)}\n{stderr}")
        if failures:
            status = 1
        else:
            count = len(list((REPO / "examples").glob("*.py"))) + len(TOOL_DEMOS)
            print(f"examples ok ({count} scripts)")
    if args.names or every:
        unresolved = unresolved_names()
        for document, name in unresolved:
            print(f"UNRESOLVED NAME {document.relative_to(REPO)}: {name}")
        if unresolved:
            status = 1
        else:
            print(f"names ok ({len(documented_names())} names)")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
