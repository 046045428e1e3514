"""Steadiness evidence: repeated runs, interleaved across workloads.

    python3 talkbench/steady.py --rounds 10 --out talkbench/STEADINESS.json

Two sets of ``--rounds`` rounds, one after the other, over every
workload in ``BENCHMARK.json``.  Round ``r`` of set ``k`` runs every
workload once with seed ``1 + r + 1000 k``, in an order that rotates
each round, so a drift in host speed lands on all workloads alike
instead of on whichever one ran during it.  For every end-to-end metric
the report gives the median and the spread (distance between the first
and third quartile, ``statistics.quantiles(values, n=4)``, as a share of
the median) beside the metric's bound, setup_s included, and the same
spread of the unscaled figure; each run's host-speed probe; how much
worse the second set's median is than the first's; the cache hit rates
each run achieved; one traced run per workload (every per-layer metric,
tracing overhead included); and whether the hit rates confirm each
workload's design.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2
FIRST_SEED = 1


def run_once(command, workload: str, seed: int, seconds: int, traced: int = 0) -> dict:
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(traced)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed: {done.stderr[-2000:]}")
    return {"summary": json.loads(lines[-2])["summary"], "result": json.loads(lines[-1])}


def spread(values) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def run_set(benchmark: dict, workloads, rounds: int, first_seed: int) -> dict:
    """``rounds`` rounds of every workload, rotating the order each round."""
    runs = {workload: [] for workload in workloads}
    for number in range(rounds):
        order = workloads[number % len(workloads):] + workloads[: number % len(workloads)]
        for workload in order:
            outcome = run_once(
                benchmark["command"], workload, first_seed + number, benchmark["run_seconds"]
            )
            if not outcome["result"]["correct"]:
                raise RuntimeError(f"{workload} seed {first_seed + number}: wrong replies")
            runs[workload].append(outcome)
            values = {k: round(v["value"], 3) for k, v in outcome["result"]["metrics"].items()}
            print(workload, first_seed + number, values, flush=True)
    return runs


def worse_by(first: float, second: float, spec: dict) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return -change if spec["better"] == "higher" else change


def design_checks(entries: dict) -> dict:
    """Whether every run's hit rates match what its workload is for."""
    checks = {}

    def rates(workload, key):
        return [
            run[key]
            for one_set in entries[workload]["sets"]
            for run in one_set["hit_rates_per_run"]
        ]

    checks["verify_warm: cached translations and shape-plan hits >= 0.9"] = (
        min(rates("verify_warm", "translate_cached_share")) >= 0.9
        and min(rates("verify_warm", "shape_plan_hit_rate")) >= 0.9
    )
    checks["verify_cold: cached translations and shape-plan hits <= 0.05"] = (
        max(rates("verify_cold", "translate_cached_share")) <= 0.05
        and max(rates("verify_cold", "shape_plan_hit_rate")) <= 0.05
    )
    full_scans = {
        w: entries[w]["per_layer"]["storage.full_scans_per_op"]
        for w in ("verify_warm", "data_entry")
    }
    checks["full scans per op: data_entry > verify_warm"] = (
        full_scans["data_entry"] > full_scans["verify_warm"]
    )
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    workloads = [w["name"] for w in benchmark["workloads"]]
    metrics_spec = {m["name"]: m for m in benchmark["end_to_end"]}
    report = {"rounds": args.rounds, "sets": SETS, "workloads": {}}
    sets = [
        run_set(benchmark, workloads, args.rounds, FIRST_SEED + 1000 * number)
        for number in range(SETS)
    ]
    worst = 0.0
    for workload in workloads:
        entry = {"sets": [], "facts": sets[0][workload][0]["summary"]["facts"]}
        for outcomes in (one_set[workload] for one_set in sets):
            metrics = {}
            for name, spec in metrics_spec.items():
                values = [o["result"]["metrics"][name]["value"] for o in outcomes]
                share = spread(values) if len(values) > 1 else 0.0
                worst = max(worst, share / spec["bound"])
                metrics[name] = {
                    "median": statistics.median(values),
                    "spread": round(share, 4),
                    "bound": spec["bound"],
                    "values": values,
                }
                unscaled = [o["summary"]["unscaled"].get(name) for o in outcomes]
                if None not in unscaled and len(unscaled) > 1:
                    metrics[name]["unscaled_spread"] = round(spread(unscaled), 4)
            entry["sets"].append(
                {
                    "seeds": [o["summary"]["seed"] for o in outcomes],
                    "metrics": metrics,
                    "probe_rep_ms_per_run": [o["summary"]["probe"]["rep_ms"] for o in outcomes],
                    "hit_rates_per_run": [o["summary"]["rates"] for o in outcomes],
                }
            )
        if len(entry["sets"]) > 1:
            first, last = entry["sets"][0]["metrics"], entry["sets"][-1]["metrics"]
            entry["second_median_worse_by"] = {
                name: round(worse_by(first[name]["median"], last[name]["median"], spec), 4)
                for name, spec in metrics_spec.items()
            }
        report["workloads"][workload] = entry
    for workload in workloads:
        traced = run_once(
            benchmark["command"], workload, FIRST_SEED, benchmark["run_seconds"], traced=1
        )
        report["workloads"][workload]["per_layer"] = {
            name: metric["value"] for name, metric in traced["result"]["metrics"].items()
        }
    report["design_checks"] = design_checks(report["workloads"])
    report["worst_spread_over_bound"] = round(worst, 3)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    for workload, entry in report["workloads"].items():
        for one_set in entry["sets"]:
            print(workload, {k: (round(v["median"], 3), v["spread"]) for k, v in one_set["metrics"].items()})
        print(workload, "second median worse by", entry.get("second_median_worse_by"))
    print("design checks:", report["design_checks"])
    print("worst spread / bound:", report["worst_spread_over_bound"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
