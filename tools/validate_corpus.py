#!/usr/bin/env python
"""Batch differential validation of every domain corpus.

Runs every corpus query of the registered domains (``repro.datasets.
domains``) through the full mode matrix — {compiled, oracle} pipelines x
{rows, paged, columnar} storage engines — and byte-diffs each mode's
translation, classification, result rows and narration against the
``compiled/rows`` baseline.  Compiled cells evaluate every query three
times (first sighting, admission, phrase- and shape-plan hit) and diff
each sighting.  See ``docs/architecture.md``, "Validation harness".

Usage::

    python tools/validate_corpus.py                     # all domains, full matrix
    python tools/validate_corpus.py --domain twitter    # one domain
    python tools/validate_corpus.py --engines rows      # restrict the engine axis
    python tools/validate_corpus.py --json report.json  # machine-readable report
    python tools/validate_corpus.py --drill             # inject a mismatch (must FAIL)
    python tools/validate_corpus.py --demo              # small self-contained run

Setting ``REPRO_ORACLE=1`` additionally forces the reference lexer,
parser and validator *globally* (the same switch the test suite uses),
so a CI run under that variable re-validates the matrix with every
compiled front-end path disabled process-wide.

Exit status: ``0`` when every comparison matched, ``1`` on any mismatch
(including the deliberate one injected by ``--drill``), ``2`` for usage
errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.datasets.domains import DOMAIN_NAMES, get_domain  # noqa: E402
from repro.oracle import oracle_enabled  # noqa: E402
from repro.querygraph.builder import use_reference_validation  # noqa: E402
from repro.sql.lexer import use_reference_lexer  # noqa: E402
from repro.sql.parser import use_reference_parser  # noqa: E402
from repro.validation import Mode, ValidationHarness  # noqa: E402
from repro.validation.harness import ENGINES, PIPELINES  # noqa: E402
from repro.validation.report import QueryOutcome  # noqa: E402


def _drill_mutator_for(harness: ValidationHarness):
    """Corrupt exactly one cell so a healthy differ MUST report it.

    The corruption hits the last mode of the matrix on the first query of
    the first validated domain, flipping the translation, the rows and
    the narration at once — the report must show all three kinds.
    """
    target_mode = harness.modes[-1]
    target_domain = harness.domains[0].name
    target_query = harness.domains[0].corpus()[0].name

    def mutate(mode, domain, query, outcome):
        if mode == target_mode and domain == target_domain and query.name == target_query:
            return QueryOutcome(
                query=outcome.query,
                expected_category=outcome.expected_category,
                translation="[drill] deliberately corrupted translation",
                category=outcome.category,
                rows="[drill] deliberately corrupted rows",
                narration="[drill] deliberately corrupted narration",
                error=outcome.error,
            )
        return outcome

    return mutate


def build_harness(args) -> ValidationHarness:
    if args.domain:
        domains = [get_domain(name) for name in args.domain]
    else:
        domains = [get_domain(name) for name in DOMAIN_NAMES]
    modes = tuple(
        Mode(pipeline, engine)
        for pipeline in PIPELINES
        if pipeline in args.pipelines
        for engine in ENGINES
        if engine in args.engines
    )
    harness = ValidationHarness(
        domains=domains,
        modes=modes,
        seed=args.seed,
        scale=args.scale,
        narrate=not args.no_narration,
    )
    if args.drill:
        harness.mutate = _drill_mutator_for(harness)
    return harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--domain",
        action="append",
        choices=DOMAIN_NAMES,
        help="validate only this domain (repeatable; default: all)",
    )
    parser.add_argument(
        "--pipelines",
        nargs="+",
        choices=PIPELINES,
        default=list(PIPELINES),
        help="pipeline axis of the matrix (default: both)",
    )
    parser.add_argument(
        "--engines",
        nargs="+",
        choices=ENGINES,
        default=list(ENGINES),
        help="storage-engine axis of the matrix (default: all three)",
    )
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    parser.add_argument("--scale", type=int, default=1, help="dataset scale factor")
    parser.add_argument(
        "--no-narration",
        action="store_true",
        help="skip the narration stage (faster; still diffs rows)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the machine-readable report to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--drill",
        action="store_true",
        help="inject a deliberate mismatch to prove the differ is live",
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="small self-contained run (one domain, rows engine only)",
    )
    args = parser.parse_args(argv)

    if "rows" not in args.engines:
        # The baseline is compiled/rows; the engine axis must include it.
        args.engines = ["rows", *args.engines]
    if "compiled" not in args.pipelines:
        args.pipelines = ["compiled", *args.pipelines]
    if args.demo:
        args.domain = args.domain or ["twitter"]
        args.engines = ["rows"]

    # Mirror conftest.py: under REPRO_ORACLE the reference front end is
    # forced for the whole process, compiled cells included — the matrix
    # then proves the *rest* of the pipeline agrees even when the front
    # end is pinned to the oracle.
    stack = contextlib.ExitStack()
    if oracle_enabled():
        stack.enter_context(use_reference_lexer())
        stack.enter_context(use_reference_parser())
        stack.enter_context(use_reference_validation())

    with stack:
        harness = build_harness(args)
        report = harness.run()

    print(report.render())
    if args.json:
        payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n", encoding="utf-8")
            print(f"report written to {args.json}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
