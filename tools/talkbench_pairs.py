#!/usr/bin/env python
"""Alternated talkbench pairs: a change against its parent, one workload.

Runs the ``command`` of the change's ``BENCHMARK.json`` (``python3
talkbench/run.py``) with ``--workload W --seed S --seconds X --trace 0``
in a parent checkout and in a change checkout, ``--pairs`` times.  Pair
``i`` uses seed ``--first-seed + i`` on both sides, and the side that
runs first alternates (the parent on even pairs), so drift in host speed
over the session falls on both sides alike.

For every end-to-end metric in that ``BENCHMARK.json`` it prints each
side's median and quartiles, how many pairs the change won, and a
verdict against the metric's bound (a relative change):

* ``unresolved`` — the parent's spread exceeds the bound: these runs
  cannot tell a change of that size;
* ``worse than bound`` — the change's median is worse than the parent's
  by more than the bound;
* ``better`` — the change won at least nine pairs in ten, and its median
  is better than the parent's by more than the parent's spread;
* ``within bound`` — anything else.

The spread is ``talkbench/steady.py``'s: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, so a parent spread here means what it means in the
steadiness report.  It also prints each side's share of failed requests.
Exit status is 1 if any run printed ``"correct": false`` or no result
line at all, else 0.

Usage::

    python3 tools/talkbench_pairs.py --parent ../parent --change . \\
        --workload verify_warm --pairs 10 --seconds 10

Standard library only; run it from anywhere (each run's working
directory is its checkout).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from talkbench.steady import spread  # noqa: E402

#: Share of pairs the change must win for a ``better`` verdict.
WIN_SHARE = 0.9

SIDES = ("parent", "change")


def parse_result(stdout: str) -> Optional[Dict[str, Any]]:
    """The run's result object: its last non-empty stdout line, or None."""
    for line in reversed(stdout.strip().splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            return None
        return record if isinstance(record, dict) and "metrics" in record else None
    return None


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` of ``values``, by the quartiles of :func:`spread`."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def verdict(
    spec: Dict[str, Any], parent: Sequence[float], change: Sequence[float]
) -> Dict[str, Any]:
    """Compare one metric's paired values; ``parent[i]`` pairs ``change[i]``."""
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    p_median = statistics.median(parent)
    c_median = statistics.median(change)
    wins = sum(
        (c < p) if lower else (c > p) for p, c in zip(parent, change)
    )
    parent_spread = spread(parent) if len(parent) > 1 else 0.0
    # Signed so that a positive share is always the change doing worse.
    worse_by = ((c_median - p_median) if lower else (p_median - c_median)) / p_median
    if parent_spread > bound:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "worse than bound"
    elif wins >= math.ceil(WIN_SHARE * len(parent)) and -worse_by > parent_spread:
        outcome = "better"
    else:
        outcome = "within bound"
    return {
        "metric": spec["name"],
        "parent": quartiles(parent),
        "change": quartiles(change),
        "delta_pct": 100.0 * (c_median - p_median) / p_median,
        "wins": wins,
        "pairs": len(parent),
        "bound": bound,
        "verdict": outcome,
    }


def compare(
    specs: Sequence[Dict[str, Any]], records: Dict[str, List[Dict[str, Any]]]
) -> List[Dict[str, Any]]:
    """One :func:`verdict` per metric that every run reported."""
    rows = []
    for spec in specs:
        name = spec["name"]
        if not all(name in r["metrics"] for side in SIDES for r in records[side]):
            continue
        values = {
            side: [r["metrics"][name]["value"] for r in records[side]] for side in SIDES
        }
        rows.append(verdict(spec, values["parent"], values["change"]))
    return rows


def failed_share(records: Sequence[Dict[str, Any]]) -> float:
    attempted = sum(r.get("attempted", 0) for r in records)
    return sum(r.get("failed", 0) for r in records) / attempted if attempted else 0.0


def run_once(
    command: List[str], checkout: Path, workload: str, seed: int, seconds: float
) -> Optional[Dict[str, Any]]:
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    record = parse_result(done.stdout)
    if record is None:
        sys.stderr.write(
            f"{checkout} seed {seed}: no result line (exit {done.returncode})\n"
            f"{done.stderr.strip()[-2000:]}\n"
        )
    return record


def report(workload: str, rows: Sequence[Dict[str, Any]], records) -> str:
    lines = [f"workload {workload}: {len(records['parent'])} pairs"]
    lines.append(
        f"  {'metric':<16} {'parent q1/med/q3':>28} {'change q1/med/q3':>28}"
        f" {'delta':>8} {'wins':>6}  verdict"
    )
    for row in rows:
        parent = "/".join(f"{v:.4g}" for v in row["parent"])
        change = "/".join(f"{v:.4g}" for v in row["change"])
        lines.append(
            f"  {row['metric']:<16} {parent:>28} {change:>28}"
            f" {row['delta_pct']:>+7.1f}% {row['wins']:>3}/{row['pairs']:<2}"
            f"  {row['verdict']} (bound {row['bound']:.0%})"
        )
    lines.append(
        "  failed requests: "
        + ", ".join(f"{side} {failed_share(records[side]):.4%}" for side in SIDES)
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent, "change": args.change}
    records: Dict[str, List[Dict[str, Any]]] = {side: [] for side in SIDES}
    status = 0
    for index in range(args.pairs):
        seed = args.first_seed + index
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            record = run_once(
                benchmark["command"], checkouts[side], args.workload, seed, args.seconds
            )
            if record is None or record.get("correct") is not True:
                status = 1
            pair[side] = record
        if all(pair[side] is not None for side in SIDES):
            for side in SIDES:
                records[side].append(pair[side])
        print(f"pair {index + 1}/{args.pairs} (seed {seed}, {order[0]} first) done", flush=True)
    if records["parent"]:
        print(report(args.workload, compare(benchmark["end_to_end"], records), records))
    if status:
        print("a run printed \"correct\": false or no result line", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
