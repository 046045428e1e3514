#!/usr/bin/env python
"""Benchmark regression guard: diff a smoke run against the committed reference.

CI runs ``run_benchmarks.py --quick`` on every push, but until now only
the *in-run* translate guard (plan path vs full pipeline) could fail the
build — a regression in any other recorded speedup would land silently.
This script diffs the smoke run's recorded ratios against the committed
``BENCH_perf.json`` and fails when any guarded ratio drops below a
tolerance of its committed value.

Two classes of ratio are guarded differently:

* **machine-relative** ratios compare two measurements from the *same*
  run (interpreted vs compiled executor, naive vs service, plan path vs
  full pipeline, char vs regex lexer).  They are largely
  independent of how fast the runner is, but their denominators are
  often sub-millisecond warm medians that jitter up to ~2x on shared CI
  runners, so the floor is ``0.5x`` of the committed ratio — tight
  enough to catch any real compiled-path regression (those show up as
  5-100x collapses), loose enough not to flake.
* **frozen-reference** speedups compare a live measurement against a
  constant measured once on the reference container (the
  ``translation_reference``/``frontend_reference`` blocks).  A slower CI
  runner shrinks them all proportionally, so their floor is loose
  (``0.35x``) — they catch collapses, not drift.

Ratios whose committed value is below ``2.0`` are reported but never
fail the run: sub-2x numbers sit inside measurement noise, and the guard
exists for the order-of-magnitude compiled-path wins.

Group commit is guarded as a count, not a time: the smoke run's
``durability.service.wal_syncs`` must show at most one WAL sync per
``batch_every`` inserts plus the closing flush under ``fsync="batch"``,
and exactly one sync per insert under ``fsync="always"``.  The timed
``batch_vs_always_ratio`` beside it is information only — on a fast
disk one fsync per insert is within the run-to-run spread of an insert.

Usage::

    python benchmarks/check_regression.py bench_smoke.json BENCH_perf.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

MACHINE_RELATIVE_TOLERANCE = 0.5
FROZEN_REFERENCE_TOLERANCE = 0.35
MIN_GUARDED_RATIO = 2.0

#: Ratio-valued keys that are not named ``speedup*``.
_EXTRA_RATIO_KEYS = {"plan_vs_full_ratio", "tokenize_speedup_vs_char"}

#: Sections whose ``speedup_*`` entries compare against frozen constants
#: measured on the reference container rather than against the same run.
_FROZEN_SECTIONS = {"translation_core", "narration_frontend"}


def _collect(node, path: Tuple[str, ...] = ()) -> Iterator[Tuple[Tuple[str, ...], float]]:
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if key == "speedup" or key.startswith("speedup_") or key in _EXTRA_RATIO_KEYS:
                    yield path + (key,), float(value)
            else:
                yield from _collect(value, path + (key,))


def _is_frozen_reference(path: Tuple[str, ...]) -> bool:
    return (
        path[0] in _FROZEN_SECTIONS
        and path[-1].startswith("speedup_")
        and path[-1] != "tokenize_speedup_vs_char"
    )


def check_group_commit(smoke: dict) -> List[str]:
    """Group commit's promise, as WAL sync counts; returns the violations."""
    durability = smoke.get("durability")
    if durability is None:
        return []  # a run without the durability section
    service = durability["service"]
    inserts, batch_every = service["inserts"], service["batch_every"]
    syncs = service["wal_syncs"]
    batch_bound = inserts // batch_every + 1
    print(
        f"  durability.service.wal_syncs: batch {syncs['batch']} (at most"
        f" {batch_bound}), always {syncs['always']} (exactly {inserts})"
        f" for {inserts} inserts"
    )
    violations = []
    if syncs["batch"] > batch_bound:
        violations.append(
            f"fsync=batch synced {syncs['batch']} times for {inserts} inserts"
            f" (at most {batch_bound}: one per {batch_every} plus the flush)"
        )
    if syncs["always"] != inserts:
        violations.append(
            f"fsync=always synced {syncs['always']} times for {inserts} inserts"
        )
    return violations


def check(smoke: dict, reference: dict) -> int:
    smoke_ratios: Dict[Tuple[str, ...], float] = dict(_collect(smoke))
    failures = []
    compared = 0
    for path, committed in _collect(reference):
        measured = smoke_ratios.get(path)
        if measured is None:
            continue  # quick mode measures a subset; only the overlap counts
        compared += 1
        frozen = _is_frozen_reference(path)
        tolerance = FROZEN_REFERENCE_TOLERANCE if frozen else MACHINE_RELATIVE_TOLERANCE
        floor = committed * tolerance
        label = ".".join(path)
        guarded = committed >= MIN_GUARDED_RATIO
        status = "ok"
        if measured < floor:
            if guarded:
                status = "FAIL"
                failures.append((label, measured, committed, floor))
            else:
                status = "below floor (unguarded: committed < 2x)"
        print(
            f"  {label}: {measured:.1f}x vs committed {committed:.1f}x"
            f" (floor {floor:.1f}x, {'frozen' if frozen else 'relative'}) {status}"
        )
    print(f"{compared} ratios compared, {len(failures)} regression(s)")
    for label, measured, committed, floor in failures:
        print(
            f"::error::benchmark regression: {label} measured {measured:.2f}x,"
            f" below {floor:.2f}x (50%/35% of committed {committed:.2f}x)"
        )
    violations = check_group_commit(smoke)
    for violation in violations:
        print(f"::error::group commit: {violation}")
    return 1 if failures or violations else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("smoke", help="fresh bench_smoke.json from this run")
    parser.add_argument("reference", help="committed BENCH_perf.json")
    args = parser.parse_args(argv)
    smoke = json.loads(Path(args.smoke).read_text())
    reference = json.loads(Path(args.reference).read_text())
    return check(smoke, reference)


if __name__ == "__main__":
    sys.exit(main())
