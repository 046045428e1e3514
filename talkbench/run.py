"""Run one talk-back benchmark workload and print its metrics.

    python3 talkbench/run.py --workload verify_warm --seed 1 --seconds 10 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  The line before it is a summary of what the run did:
the stream's sizes, the cache hit rates it achieved, the host-speed
probe, the unscaled timings, wall-clock latencies and (data_entry) write
latency.  Latencies are read on the program's CPU clocks (see
``talkbench/workloads.py``), and every timing is reported scaled to the
probe's reference host speed (see ``talkbench/hostspeed.py``).  Exit
status is 0 only when every reply matched the replay; without the
program's sources (``src/``) it is 2 and nothing is printed on standard
output.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import asyncio  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".talkbench")
WORKLOADS = ("verify_warm", "verify_cold", "data_entry", "verify_sharded")
#: Set-ups per run (this process plus fresh child processes); the median
#: is reported as setup_s.  Five, so that two slow set-ups in a run (a
#: change of host speed inside one, which its two probe bursts miss) do
#: not move it.
SETUP_REPEATS = 5


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--drill", action="store_true",
        help="corrupt one reply before the output check; the run must fail",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _arguments(argv)
    # Every program process stays on one CPU: this one, its threads and
    # the processes it starts (shard workers, set-up children) inherit
    # the placement.  Cross-CPU wake-ups between the event loop, pool
    # threads and workers made run-to-run spreads on a shared 2-vCPU
    # host several times wider than the effects worth measuring
    # (README.md, CPU placement).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    here = os.path.dirname(os.path.abspath(__file__))
    # Running this file puts its directory first on the path, where
    # talkbench/trace.py would shadow the standard library's ``trace``.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from talkbench import hostspeed

    setup_probe = hostspeed.Probe()
    setup_probe.burst(hostspeed.SETUP_REPS)
    try:
        from talkbench import layers, oracle, streams, trace, workloads  # noqa: F401
    except ImportError as error:
        print(f"talkbench: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED - setup_probe.wall_s
    os.makedirs(WORKDIR, exist_ok=True)
    stream = streams.build(args.workload, args.seed, args.seconds)
    if args.setup_only:
        return asyncio.run(_setup_only(stream, import_s, setup_probe))
    return asyncio.run(_run(args, stream, import_s, setup_probe))


async def _setup_only(stream, import_s: float, setup_probe) -> int:
    from talkbench import hostspeed, workloads

    deployment, setup_s = await workloads.set_up(stream, WORKDIR)
    setup_probe.burst(hostspeed.SETUP_REPS)
    await deployment.close()
    deployment.discard()
    raw = import_s + setup_s
    print(json.dumps({"setup_s": raw * setup_probe.scale(), "raw_s": raw}))
    return 0


def _child_setups(args) -> list:
    """(scaled, raw) set-up seconds of ``SETUP_REPEATS - 1`` fresh processes."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    seconds = []
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-2000:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        seconds.append((result["setup_s"], result["raw_s"]))
    return seconds


async def _run(args, stream, import_s: float, setup_probe) -> int:
    from talkbench import hostspeed, layers, trace, workloads

    runs = []  # (deployment, phase) of every timed phase, all checked
    trace_dirs = []
    try:
        if args.trace:
            trace.install()
            base = os.path.join(WORKDIR, f"trace-{args.workload}-{args.seed}-{os.getpid()}")
            trace_dirs = [base + "-all", base + "-pairs"]
            for directory in trace_dirs:
                shutil.rmtree(directory, ignore_errors=True)
                os.makedirs(directory)
            # Every request traced: the per-layer metrics.
            deployment, _, phase = await workloads.measure(
                stream, WORKDIR, setup_probe, "all", trace_dirs[0]
            )
            runs.append((deployment, phase))
            records, counters, gc_seconds = _collect_trace(trace_dirs[0])
            trace.TRACER.reset()
            # A fresh set-up, traced and untraced slices in turn: the overhead.
            paired_deployment, _, paired = await workloads.measure(
                stream, WORKDIR, hostspeed.Probe(), "pairs", trace_dirs[1]
            )
            runs.append((paired_deployment, paired))
            trace.TRACER.reset()
        else:
            deployment, setup_s, phase = await workloads.measure(stream, WORKDIR, setup_probe)
            runs.append((deployment, phase))
        wrong, problems = _check(args, stream, runs)
    finally:
        for run_deployment, _ in runs:
            run_deployment.discard()
        for directory in trace_dirs:
            shutil.rmtree(directory, ignore_errors=True)

    latencies = phase.latencies
    scales = phase.probe.slice_scales()
    rates = layers.cache_rates(phase.stats_before, phase.stats_after)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "facts": stream.facts,
        "samples": {kind: len(values) for kind, values in latencies.items()},
        "rates": {key: round(value, 4) for key, value in rates.items()},
        "wall_s": round(phase.wall_s, 3),
        "probe": {
            "rep_ms": phase.probe.rep_s() * 1000,
            "mean_rep_ms": statistics.mean(phase.probe.samples) * 1000,
            "reference_ms": hostspeed.REFERENCE_S * 1000,
            "slice_scale_range": [min(scales), max(scales)],
            "samples": len(phase.probe.samples),
        },
        # Unscaled wall-clock latencies, fsync waits and steal included.
        "wall_ms": {
            kind: {
                "p50": layers.percentile(values, 0.5) * 1000,
                "p99": layers.percentile(values, 0.99) * 1000,
            }
            for kind, values in phase.wall_latencies.items()
            if values
        },
    }
    if latencies["write"]:
        writes = phase.scaled_latencies("write")
        summary["write_p50_ms"] = layers.percentile(writes, 0.5) * 1000
        summary["write_p99_ms"] = layers.percentile(writes, 0.99) * 1000
    summary["requests_raised"] = sum(run_phase.failed for _, run_phase in runs)
    if problems:
        summary["problems"] = problems

    if args.trace:
        values = layers.derive(
            records,
            counters,
            gc_seconds,
            rates,
            requests=phase.completed,
            writes=len(latencies["write"]),
            result_rows=phase.result_rows,
            overhead=layers.trace_overhead(paired.segments, paired.probe.slice_scales()),
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER}
        with open(os.path.join(WORKDIR, f"trace-{args.workload}-{args.seed}.json"), "w") as out:
            json.dump({"spans": records, "counters": counters, "summary": summary}, out)
    else:
        setups = [((import_s + setup_s) * setup_probe.scale(), import_s + setup_s)]
        setups += _child_setups(args)
        summary["setup_runs_s"] = [scaled for scaled, _ in setups]
        summary["unscaled"] = {
            "verify_p50_ms": layers.percentile(latencies["verify"], 0.5) * 1000,
            "verify_p99_ms": layers.percentile(latencies["verify"], 0.99) * 1000,
            "narrate_p50_ms": layers.percentile(latencies["narrate"], 0.5) * 1000,
            "ops_per_s": phase.completed / phase.wall_s,
            "cpu_ms_per_op": phase.cpu_s * 1000 / max(1, phase.completed),
            "setup_s": statistics.median(raw_s for _, raw_s in setups),
        }
        verifies = phase.scaled_latencies("verify")
        wall_s, cpu_s = phase.scaled_seconds()
        values = {
            "verify_p50_ms": layers.percentile(verifies, 0.5) * 1000,
            "verify_p99_ms": layers.percentile(verifies, 0.99) * 1000,
            "narrate_p50_ms": layers.percentile(phase.scaled_latencies("narrate"), 0.5) * 1000,
            "ops_per_s": phase.completed / wall_s,
            "cpu_ms_per_op": cpu_s * 1000 / max(1, phase.completed),
            "peak_rss_mb": phase.peak_rss_mb,
            "setup_s": statistics.median(scaled for scaled, _ in setups),
        }
        units = {"ops_per_s": "ops/s", "peak_rss_mb": "MB", "setup_s": "s"}
        metrics = {
            name: {"value": values[name], "unit": units.get(name, "ms")}
            for name in (
                "verify_p50_ms", "verify_p99_ms", "narrate_p50_ms", "ops_per_s",
                "cpu_ms_per_op", "peak_rss_mb", "setup_s",
            )
        }

    summary["elapsed_s"] = round(time.perf_counter() - _STARTED, 3)
    print(json.dumps({"summary": summary}, default=str))
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": len(stream.timed) * len(runs),
                "failed": wrong,
                "metrics": metrics,
            }
        )
    )
    return 0 if wrong == 0 else 1


def _check(args, stream, runs):
    """Compare every reply of every phase with one replay; returns (wrong, problems).

    A request that raised holds a fingerprint no reply can have, so it
    counts here once, as wrong.
    """
    from repro.storage.database import Database

    from talkbench import oracle, workloads

    replay = oracle.Replay(workloads.databases(args.workload))
    wanted = oracle.expected(replay, stream.warmup, stream.timed)
    wrong = 0
    problems = []
    for deployment, phase in runs:
        bad = oracle.mismatches(phase.fingerprints, wanted, drill=args.drill)
        wrong += len(bad)
        if bad:
            problems.append(f"{len(bad)} replies differ from the replay (first: #{bad[0]})")
        if args.workload == "data_entry":
            live = deployment.databases["movies"]
            recovered, _ = Database.recover(deployment.durability_dir, schema=live.schema)
            if not oracle.same_database(recovered, live):
                problems.append("the database recovered from disk differs from the live one")
                wrong += 1
            if not oracle.same_database(replay.databases["movies"], live):
                problems.append("the live database differs from the replay's")
                wrong += 1
    return wrong, problems


def _collect_trace(trace_dir: str):
    """Span records, counters and GC seconds of a traced phase, all processes.

    Every process records only inside the phase's timed slices, so
    everything it kept belongs to them.
    """
    from talkbench import trace

    tracer = trace.TRACER
    records = [dict(span.record(), proc="main") for span in tracer.spans]
    counters = dict(tracer.counters)
    gc_seconds = sum(stop - begin for begin, stop in tracer.gc_pauses)
    for path in sorted(glob.glob(os.path.join(trace_dir, "worker-*.json"))):
        with open(path) as handle:
            report = json.load(handle)
        records += [dict(record, proc=report["pid"]) for record in report["spans"]]
        for name, value in report["counters"].items():
            counters[name] = counters.get(name, 0) + value
        gc_seconds += sum(stop - begin for begin, stop in report["gc_pauses"])
    return records, counters, gc_seconds


if __name__ == "__main__":
    sys.exit(main())
