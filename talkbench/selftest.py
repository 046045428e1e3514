"""The benchmark's own checks, including the drill that must fail a run.

    python3 talkbench/selftest.py

Runs in well under two minutes: stream determinism and design (balanced
mixes, narrates spread over every relation, cold shapes never repeat),
the output check's sensitivity, the traced/untraced slice plan and the
overhead taken from it, the host-speed probe's independence from the
program, slice-by-slice scaling, a drill that corrupts one reply and
must fail the run, shard workers' CPU counted in latency, a traced run
that reports every per-layer metric ``BENCHMARK.json`` lists, a traced
verify_sharded run whose workers record the timed requests only, and a
run in a directory holding only the benchmark, which must fail without a
result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.datasets.movies import PAPER_QUERIES  # noqa: E402
from repro.engine.result import QueryResult  # noqa: E402
from repro.query_nl.translator import QueryTranslation  # noqa: E402
from repro.sql.shape import shape_hash  # noqa: E402

from talkbench import hostspeed, layers, oracle, streams, workloads  # noqa: E402

RUN = [sys.executable, os.path.join(ROOT, "talkbench", "run.py")]
WORKDIR = os.path.join(ROOT, ".talkbench")


def _run(*args, cwd=ROOT, command=None):
    return subprocess.run(
        (command or RUN) + list(args), cwd=cwd, capture_output=True, text=True, timeout=170
    )


class StreamTests(unittest.TestCase):
    def test_same_seed_same_stream(self):
        for workload in ("verify_warm", "verify_cold", "data_entry", "verify_sharded"):
            first = streams.build(workload, 5, 0.5)
            again = streams.build(workload, 5, 0.5)
            self.assertEqual(first.timed, again.timed, workload)
            self.assertEqual(first.warmup, again.warmup, workload)

    def test_seeds_change_values_not_mix(self):
        for workload in ("verify_warm", "verify_cold", "data_entry"):
            first = streams.build(workload, 1, 1)
            second = streams.build(workload, 2, 1)
            self.assertNotEqual(first.timed, second.timed, workload)
            self.assertEqual(first.facts["by_kind"], second.facts["by_kind"], workload)

    def test_cold_shapes_never_repeat_or_warm(self):
        stream = streams.build("verify_cold", 3, 2)
        warm = {shape_hash(r.text) for r in stream.warmup if r.op == streams.VERIFY}
        cold = [shape_hash(r.text) for r in stream.timed if r.op == streams.VERIFY]
        self.assertEqual(len(set(cold)), len(cold))
        self.assertFalse(warm & set(cold))

    def test_relation_narrates_cover_every_relation_evenly(self):
        stream = streams.build("verify_cold", 4, 2)
        counts = {}
        for request in stream.timed:
            if request.op == "relation":
                key = (request.domain, request.text)
                counts[key] = counts.get(key, 0) + 1
        tables = {
            (name, table.name)
            for name in workloads.databases("verify_cold")
            for table in workloads.databases("verify_cold")[name].tables
        }
        self.assertEqual(set(counts), tables)
        self.assertLessEqual(max(counts.values()) - min(counts.values()), 1)

    def test_data_entry_supports_p99(self):
        stream = streams.build("data_entry", 1, 10)
        self.assertGreaterEqual(stream.facts["by_kind"]["verify"], 1010)
        q6 = " ".join(PAPER_QUERIES["Q6"].split())
        self.assertEqual(sum(1 for r in stream.timed if r.text == q6), streams.Q6_PER_RUN)


class OutputCheckTests(unittest.TestCase):
    def test_fingerprint_sees_one_changed_row(self):
        request = streams.Request(streams.VERIFY, streams.VERIFY, "movies", "select 1")
        translation = QueryTranslation(sql="select 1", text="Find one.")
        good = QueryResult(columns=("x",), rows=[])
        base = oracle.fingerprint(request, (translation, good))
        other = QueryTranslation(sql="select 1", text="Find two.")
        self.assertNotEqual(base, oracle.fingerprint(request, (other, good)))
        self.assertEqual(oracle.mismatches([base, base], [base, base]), [])
        self.assertEqual(oracle.mismatches([base, base], [base, base], drill=True), [0])

    def test_percentile_nearest_rank(self):
        samples = list(range(1, 1001))
        self.assertEqual(layers.percentile(samples, 0.5), 500)
        self.assertEqual(layers.percentile(samples, 0.99), 990)
        self.assertEqual(layers.percentile([], 0.5), 0.0)


class TracePlanTests(unittest.TestCase):
    def test_slices_alternate_in_abba_pairs(self):
        self.assertEqual(
            workloads.traced_segments(8), [False, True, True, False, False, True, True, False]
        )

    def test_overhead_is_the_median_pair_ratio(self):
        plan = workloads.traced_segments(6)
        # Traced slices take 1.1 s per 100 requests, untraced 1.0 s; one
        # pair is disturbed and must not move the median.
        walls = [1.1 if traced else 1.0 for traced in plan]
        walls[4] = 3.0
        segments = [
            workloads.Segment(traced=traced, wall_s=wall, completed=100, result_rows=0)
            for traced, wall in zip(plan, walls)
        ]
        self.assertAlmostEqual(layers.trace_overhead(segments, [1.0] * len(segments)), 0.1)
        # The first slice ran at half the host speed; scaled back, it changes nothing.
        segments[0].wall_s *= 2
        scales = [0.5] + [1.0] * (len(segments) - 1)
        self.assertAlmostEqual(layers.trace_overhead(segments, scales), 0.1)


class ProbeTests(unittest.TestCase):
    def test_probe_imports_nothing_of_the_program(self):
        done = subprocess.run(
            [
                sys.executable, "-c",
                "import sys; sys.path.insert(0, sys.argv[1]);"
                " from talkbench import hostspeed; p = hostspeed.Probe(); p.burst();"
                " p.burst(); assert p.scale() > 0 and len(p.slice_scales()) == 1;"
                " print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))",
                ROOT,
            ],
            capture_output=True, text=True, timeout=60,
        )
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertEqual(done.stdout.strip(), "[]")


class ScalingTests(unittest.TestCase):
    def test_each_slice_is_scaled_by_the_bursts_around_it(self):
        probe = hostspeed.Probe()
        # Reference speed, then twice as slow, then reference again.
        probe.bursts = [[hostspeed.REFERENCE_S] * 2, [2 * hostspeed.REFERENCE_S] * 2,
                        [hostspeed.REFERENCE_S] * 2]
        self.assertEqual(probe.slice_scales(), [2 / 3, 2 / 3])
        probe.bursts.append([2 * hostspeed.REFERENCE_S] * 2)
        self.assertEqual(probe.slice_scales()[2], 2 / 3)
        probe.bursts.append([2 * hostspeed.REFERENCE_S] * 2)
        self.assertEqual(probe.slice_scales()[3], 0.5)
        phase = workloads.Phase(
            fingerprints=[],
            latencies={"verify": [1.0, 2.0, 4.0]},
            wall_latencies={"verify": [1.0, 2.0, 4.0]},
            latency_slices={"verify": [0, 2, 3]},
            failed=0,
            segments=[
                workloads.Segment(traced=False, wall_s=1.0, completed=1, result_rows=0, cpu_s=1.0)
                for _ in range(4)
            ],
            peak_rss_mb=0.0,
            probe=probe,
        )
        self.assertEqual(phase.scaled_latencies("verify"), [2 / 3, 4 / 3, 2.0])
        self.assertEqual(phase.scaled_seconds(), (2 / 3 * 3 + 0.5, 2 / 3 * 3 + 0.5))


class RunTests(unittest.TestCase):
    def test_clean_run_passes_and_drill_fails(self):
        clean = _run("--workload", "verify_warm", "--seed", "1", "--seconds", "0.5", "--trace", "0")
        self.assertEqual(clean.returncode, 0, clean.stderr)
        result = json.loads(clean.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            benchmark = json.load(handle)
        self.assertEqual(
            sorted(result["metrics"]), sorted(m["name"] for m in benchmark["end_to_end"])
        )
        drill = _run(
            "--workload", "verify_warm", "--seed", "1", "--seconds", "0.5", "--trace", "0",
            "--drill",
        )
        self.assertNotEqual(drill.returncode, 0)
        result = json.loads(drill.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_shard_worker_cpu_counts_in_latency(self):
        # Router and workers share one CPU, so a latency read on the CPU
        # clocks of all three processes is close to its wall time; read on
        # the router's clock alone it would be a fraction of it.
        done = _run("--workload", "verify_sharded", "--seed", "2", "--seconds", "1", "--trace", "0")
        self.assertEqual(done.returncode, 0, done.stderr)
        summary = json.loads(done.stdout.strip().splitlines()[-2])["summary"]
        cpu_p50 = summary["unscaled"]["verify_p50_ms"]
        wall_p50 = summary["wall_ms"]["verify"]["p50"]
        self.assertGreater(cpu_p50, 0.8 * wall_p50)
        self.assertLess(cpu_p50, 1.1 * wall_p50)

    def test_traced_run_reports_every_layer_metric(self):
        done = _run("--workload", "data_entry", "--seed", "1", "--seconds", "1", "--trace", "1")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            benchmark = json.load(handle)
        self.assertEqual(
            sorted(result["metrics"]), sorted(m["name"] for m in benchmark["per_layer"])
        )
        self.assertEqual(
            [name for name, _ in layers.PER_LAYER], [m["name"] for m in benchmark["per_layer"]]
        )
        self.assertGreater(result["metrics"]["storage.full_scans_per_op"]["value"], 0)
        self.assertGreater(result["metrics"]["storage.dml_ms"]["value"], 0)

    def test_traced_shard_workers_follow_the_switch(self):
        done = _run("--workload", "verify_sharded", "--seed", "1", "--seconds", "1", "--trace", "1")
        self.assertEqual(done.returncode, 0, done.stderr)
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        # Worker spans arrived and pair with the router's calls.
        self.assertGreater(metrics["sharding.router_ms"]["value"], 0)
        self.assertGreater(metrics["sharding.frame_bytes_per_op"]["value"], 0)
        self.assertLess(metrics["sharding.worker_max_share"]["value"], 1)
        self.assertGreater(metrics["engine.execute_self_ms"]["value"], 0)
        # Workers recorded the timed requests only, not the warm-up: each
        # makes one worker call (narrate) or two (translate, execute).
        with open(os.path.join(WORKDIR, "trace-verify_sharded-1.json")) as handle:
            spans = json.load(handle)["spans"]
        requests = sum(1 for span in spans if span["name"].startswith("request."))
        worker_calls = sum(1 for span in spans if span["name"].startswith("worker."))
        self.assertGreater(requests, 0)
        self.assertGreaterEqual(worker_calls, requests)
        self.assertLessEqual(worker_calls, 2 * requests)

    def test_without_sources_it_fails_without_a_result(self):
        bare = os.path.join(WORKDIR, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(
                os.path.join(ROOT, "talkbench"),
                os.path.join(bare, "talkbench"),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            done = _run(
                "--workload", "verify_warm", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=bare, command=[sys.executable, "talkbench/run.py"],
            )
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
