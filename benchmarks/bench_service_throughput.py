#!/usr/bin/env python
"""Throughput benchmark for the concurrent narration service.

Measures requests/second for SQL→NL translation served by
:class:`repro.service.NarrationService` at 1, 8 and 64 concurrent
clients, against a *naive one-thread-per-request baseline*: N concurrent
client threads, each of whose requests is handled by a freshly spawned
thread running the full uncached pipeline (fresh translator, no
exact-text LRU, no phrase plans) — what a stateless per-request server
would do.

Two service streams are measured warm:

* ``repeated_text`` — clients replay the 50-query workload verbatim, so
  requests are served by the exact-text LRU (the steady state of real
  "talk back" traffic);
* ``literal_variants`` — every request rotates the literal values, so
  the exact-text LRU never hits and every request exercises the
  shape-keyed phrase-plan path.

Every request of either stream takes its session's turn and runs on the
event loop, so neither reaches the service's pool, which runs only
requests that can wait on the disk.

The in-run equivalence check asserts concurrent output is byte-identical
to sequential synchronous translation before any number is recorded, and
the run fails if warm throughput at 64 clients drops below 5x the naive
baseline (the service's reason to exist).

Usage::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py [--quick]

``benchmarks/run_benchmarks.py`` imports :func:`bench_service_throughput`
and records the result under ``service_throughput`` in ``BENCH_perf.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import threading
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from budgets import exit_status, record  # noqa: E402
from repro.datasets import generate_workload, movie_database, movie_schema  # noqa: E402
from repro.query_nl.translator import QueryTranslator  # noqa: E402
from repro.service import NarrationService, ShardRouter, WorkerCrashed  # noqa: E402
from repro.service.sharding.router import failover_order  # noqa: E402
from repro.sql.shape import shape_hash  # noqa: E402

CLIENT_COUNTS = (1, 8, 64)
WORKER_COUNTS = (1, 2, 4)

_DB_FACTORY = "repro.datasets.movies:movie_database"
_BENCH_DB_FACTORY = "repro.datasets.generator:bench_movie_database"
_SPEC_FACTORY = "repro.content.presets:movie_spec"

_NAMES = [
    "Brad Pitt", "Scarlett Johansson", "Mark Hamill",
    "Morgan Freeman", "Woody Allen", "G. Loucas",
]


def _workload():
    return [q.sql for q in generate_workload(queries_per_category=10, seed=42)]


def _variant_batches(workload, rounds):
    """Literal-rotated copies of the workload (never the same text twice)."""
    return [
        [sql.replace("Brad Pitt", _NAMES[(r + i) % len(_NAMES)])
         for i, sql in enumerate(workload)]
        for r in range(rounds)
    ]


# ---------------------------------------------------------------------------
# The two servers under measurement
# ---------------------------------------------------------------------------


def _service_rps(
    schema, warm_batches, measure_batches, clients, cache_size=512
) -> tuple:
    """Warm requests/second through one NarrationService session.

    ``warm_batches`` are translated once untimed (compiling every shape's
    phrase plan); every client then replays ``measure_batches``.  When the
    measured texts equal the warm ones the steady state is the exact-text
    LRU + direct-await path; when they only share *shapes* every request
    is a phrase-plan render on the event loop.
    """

    async def client(session, batches):
        for batch in batches:
            for sql in batch:
                await session.translate(sql)

    async def main():
        async with NarrationService() as service:
            session = service.session(schema=schema, cache_size=cache_size)
            for batch in warm_batches:
                for sql in batch:
                    await session.translate(sql)
            requests = clients * sum(len(b) for b in measure_batches)
            start = time.perf_counter()
            await asyncio.gather(
                *[client(session, measure_batches) for _ in range(clients)]
            )
            elapsed = time.perf_counter() - start
            return requests / elapsed, session.stats()

    return asyncio.run(main())


def _naive_rps(schema, workload, clients) -> float:
    """The one-thread-per-request baseline's requests/second.

    Each of ``clients`` concurrent client threads issues the workload
    sequentially; every single request spawns a fresh handler thread
    running the full pipeline with no shared translator state.
    """

    def handle(sql):
        QueryTranslator(schema, cache_size=None, phrase_plans=False).translate(sql)

    def client():
        for sql in workload:
            handler = threading.Thread(target=handle, args=(sql,))
            handler.start()
            handler.join()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return clients * len(workload) / elapsed


# ---------------------------------------------------------------------------
# Equivalence (checked before any number is recorded)
# ---------------------------------------------------------------------------


def verify_service_equivalence(schema, workload, clients: int = 64) -> str:
    """Concurrent results must equal sequential synchronous translation."""
    sync = QueryTranslator(schema, cache_size=None, phrase_plans=True)
    expected = [sync.translate(sql) for sql in workload]

    async def replay(session):
        return await asyncio.gather(*[session.translate(sql) for sql in workload])

    async def main():
        async with NarrationService() as service:
            session = service.session(schema=schema)
            return await asyncio.gather(*[replay(session) for _ in range(clients)])

    for results in asyncio.run(main()):
        for fast, slow in zip(results, expected):
            if fast != slow:  # compares every textual field
                raise AssertionError(
                    f"concurrent translation diverged from sync on {slow.sql!r}"
                )
    return (
        f"byte-identical to the synchronous pipeline"
        f" ({clients} clients x {len(workload)} queries)"
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def bench_service_throughput(quick: bool = False) -> dict:
    schema = movie_schema()
    workload = _workload()
    rounds = 1 if quick else 4
    results: dict = {
        "workload_queries": len(workload),
        "baseline": (
            "one thread per request, each running the full uncached pipeline"
            " (fresh translator, no LRU, no phrase plans)"
        ),
        "equivalence": verify_service_equivalence(schema, workload),
        "clients": {},
    }
    variant_batches = _variant_batches(workload, 1 + max(2, rounds))
    for clients in CLIENT_COUNTS:
        repeated_rps, stats = _service_rps(
            schema, [workload], [workload] * rounds, clients
        )
        naive = _naive_rps(schema, workload, clients)
        results["clients"][str(clients)] = {
            "service_rps": round(repeated_rps, 1),
            "naive_rps": round(naive, 1),
            "speedup": round(repeated_rps / max(naive, 1e-9), 1),
        }
        if clients == CLIENT_COUNTS[-1]:
            results["request_stats"] = stats["requests"]
    # Fresh texts over warm *plans*, with the exact-text LRU disabled: every
    # request is a shape-keyed plan render on the event loop.
    variants_rps, variant_stats = _service_rps(
        schema,
        variant_batches[:1],
        variant_batches[1:],
        CLIENT_COUNTS[-1],
        cache_size=None,
    )
    results["literal_variants_rps_64"] = round(variants_rps, 1)
    results["literal_variants_plan_store"] = variant_stats["translator"]["plan_store"]

    top = results["clients"][str(CLIENT_COUNTS[-1])]
    record(
        results,
        top["speedup"] >= 5,
        "service-bench regression: warm throughput at"
        f" {CLIENT_COUNTS[-1]} clients is only {top['speedup']}x the naive"
        " one-thread-per-request baseline (expected >= 5x)",
    )
    return results


# ---------------------------------------------------------------------------
# The shard tier
# ---------------------------------------------------------------------------


def _percentile(sorted_seconds, fraction: float) -> float:
    if not sorted_seconds:
        return 0.0
    index = min(len(sorted_seconds) - 1, int(fraction * (len(sorted_seconds) - 1)))
    return sorted_seconds[index]


def _client_batches(workload, clients: int, rounds: int):
    """Per-client literal-variant batches: no two clients share a text.

    Each client rendering its *own* variants is what makes the stream a
    real per-request workload — were every client to replay identical
    texts, the translator's exact-text cache would serve every repeat and
    the benchmark would measure queueing, not translation.
    """
    batches = _variant_batches(workload, clients * rounds)
    return [batches[index * rounds : (index + 1) * rounds] for index in range(clients)]


def _router_rps(workers: int, clients: int, warm_batch, client_batches) -> tuple:
    """Requests/second and sorted latencies through a ``ShardRouter`` fleet.

    The measured stream is warm SQL *execution* on the 200-movie shared
    benchmark database — ~2.6ms of real engine work per request, the
    regime the shard tier exists for.  (A translate-only cache-hit stream
    is a dict lookup in-process and can only lose to the IPC round-trip;
    that overhead is recorded separately as ``ipc_round_trip_p50_ms``.)
    Each client executes its own literal variants, so nothing coalesces
    across clients and every request costs a real execution on its
    shape's worker.
    """

    async def client(router, batches, latencies):
        for batch in batches:
            for sql in batch:
                start = time.perf_counter()
                await router.execute(sql)
                latencies.append(time.perf_counter() - start)

    async def main():
        async with ShardRouter(
            _BENCH_DB_FACTORY, spec_factory=_SPEC_FACTORY, workers=workers
        ) as router:
            for sql in warm_batch:  # compiles every shape's plan, untimed
                await router.execute(sql)
            latencies: list = []
            start = time.perf_counter()
            await asyncio.gather(
                *[
                    client(router, client_batches[index], latencies)
                    for index in range(clients)
                ]
            )
            elapsed = time.perf_counter() - start
            return len(latencies) / elapsed, sorted(latencies)

    return asyncio.run(main())


def _single_rps(clients: int, warm_batch, client_batches) -> float:
    """One in-process session's requests/second on the identical stream."""
    from repro.datasets.generator import bench_movie_database

    database = bench_movie_database()

    async def client(session, batches):
        for batch in batches:
            for sql in batch:
                await session.execute(sql)

    async def main():
        async with NarrationService() as service:
            session = service.session(database=database)
            for sql in warm_batch:
                await session.execute(sql)
            requests = sum(
                len(batch) for batches in client_batches for batch in batches
            )
            start = time.perf_counter()
            await asyncio.gather(
                *[
                    client(session, client_batches[index])
                    for index in range(clients)
                ]
            )
            return requests / (time.perf_counter() - start)

    return asyncio.run(main())


def _ipc_round_trip_p50_ms(workload) -> float:
    """Median one-worker one-client latency on a pure cache-hit stream.

    Every request is an exact-text LRU hit on the worker (small seed
    database, translate only), so the number is the shard tier's own
    per-request overhead: one pickle round-trip plus dispatch.
    """

    async def main():
        async with ShardRouter(
            _DB_FACTORY, spec_factory=_SPEC_FACTORY, workers=1
        ) as router:
            for sql in workload:
                await router.translate(sql)
            latencies = []
            for sql in workload * 2:
                start = time.perf_counter()
                await router.translate(sql)
                latencies.append(time.perf_counter() - start)
            return sorted(latencies)

    return round(_percentile(asyncio.run(main()), 0.50) * 1e3, 3)


def verify_shard_equivalence(workload) -> str:
    """Shard-tier output must be byte-identical to the single-process oracle.

    The checked history is deliberately hostile: the corpus runs with a
    mutation broadcast in the middle, and one worker is SIGKILLed
    mid-workload — the surviving results, the respawned worker's results
    and the post-mutation reads must all equal the oracle's.
    """
    mutation = "insert into GENRE values (4, 'shard-bench')"
    probe = "select g.genre from GENRE g where g.mid = 4"
    database = movie_database()

    async def retry(call):
        for _ in range(120):
            try:
                return await call()
            except WorkerCrashed:
                await asyncio.sleep(0.25)
        raise AssertionError("worker never respawned")

    async def history(target, kill=None):
        outputs = []
        for index, sql in enumerate(workload):
            if index == len(workload) // 3:
                outputs.append(await retry(lambda: target.execute(mutation)))
                outputs.append(await retry(lambda: target.execute(probe)))
            if kill is not None and index == len(workload) // 2:
                kill()
            outputs.append(await retry(lambda s=sql: target.translate(s)))
            outputs.append(await retry(lambda s=sql: target.execute(s)))
        return outputs

    async def main():
        async with NarrationService() as service:
            oracle = service.session(database=database)
            expected = await history(oracle)
        async with ShardRouter(_DB_FACTORY, workers=2) as router:
            # Kill the owner of the read sent right after the kill: that
            # read fails in flight, so the drill also crosses the
            # router's retry path, not only the respawn.
            victim = failover_order(shape_hash(workload[len(workload) // 2]), 2)[0]
            got = await history(router, kill=lambda: router.kill_worker(victim))
            stats = await router.stats()
        if got != expected:
            for index, (a, b) in enumerate(zip(got, expected)):
                if a != b:
                    raise AssertionError(
                        f"shard tier diverged from the oracle at step {index}"
                    )
        if stats["router"]["respawns"] < 1:
            raise AssertionError("the crash drill did not exercise a respawn")
        return (
            f"byte-identical to the single-process oracle"
            f" ({len(workload)} queries, interleaved mutation,"
            f" 1 worker SIGKILLed and respawned mid-workload)"
        )

    return asyncio.run(main())


def bench_shard_tier(quick: bool = False, worker_counts=WORKER_COUNTS) -> dict:
    """Requests/second and latency for 1/2/4-worker fleets at 1/8/64 clients.

    ``speedup_vs_single_process`` compares each fleet's 64-client
    throughput against one in-process session on the identical stream.
    The >=3x scaling expectation at 4 workers is only *asserted* when the
    machine actually has 4 cores — on smaller runners the recorded number
    is honest but the guard is informational (``cpu_count`` is recorded
    so readers can tell which regime produced the artifact).
    """
    workload = _workload()
    rounds = 1 if quick else 2
    cpus = os.cpu_count() or 1
    warm_batch = workload
    streams = {
        clients: _client_batches(workload, clients, rounds)
        for clients in CLIENT_COUNTS
    }
    results: dict = {
        "workload_queries": len(workload),
        "cpu_count": cpus,
        "stream": (
            "warm SQL execution of per-client literal variants on the"
            " 200-movie shared benchmark database (~2.6ms engine work per"
            " request)"
        ),
        "baseline": (
            "one in-process NarrationService session serving the identical"
            " execution stream"
        ),
        "equivalence": verify_shard_equivalence(workload),
        "ipc_round_trip_p50_ms": _ipc_round_trip_p50_ms(workload),
        "workers": {},
    }
    single = {
        clients: _single_rps(clients, warm_batch, streams[clients])
        for clients in CLIENT_COUNTS
    }
    results["single_process_rps"] = {
        str(clients): round(rps, 1) for clients, rps in single.items()
    }
    top_clients = CLIENT_COUNTS[-1]
    for workers in worker_counts:
        per_clients = {}
        for clients in CLIENT_COUNTS:
            rps, latencies = _router_rps(
                workers, clients, warm_batch, streams[clients]
            )
            per_clients[str(clients)] = {
                "rps": round(rps, 1),
                "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
                "p95_ms": round(_percentile(latencies, 0.95) * 1e3, 3),
            }
        entry = {
            "clients": per_clients,
            "speedup_vs_single_process": round(
                per_clients[str(top_clients)]["rps"] / max(single[top_clients], 1e-9),
                2,
            ),
        }
        results["workers"][str(workers)] = entry
    top_workers = worker_counts[-1]
    scaling = results["workers"][str(top_workers)]["speedup_vs_single_process"]
    if top_workers >= 4 and cpus >= top_workers:
        record(
            results,
            scaling >= 3,
            f"shard-bench regression: {top_workers} workers reach only"
            f" {scaling}x single-process throughput on a {cpus}-core machine"
            " (expected >= 3x)",
        )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="single warm round")
    parser.add_argument(
        "--shard-tier",
        action="store_true",
        help="also run the multi-process shard-tier benchmark",
    )
    parser.add_argument(
        "--shard-only",
        action="store_true",
        help="run only the shard-tier benchmark (CI smoke job)",
    )
    parser.add_argument(
        "--shard-workers",
        type=int,
        nargs="+",
        default=list(WORKER_COUNTS),
        help="fleet sizes to measure (the CI smoke job passes just 2)",
    )
    args = parser.parse_args(argv)
    sections = []
    if not args.shard_only:
        results = bench_service_throughput(quick=args.quick)
        print(f"equivalence: {results['equivalence']}")
        for clients, entry in results["clients"].items():
            print(
                f"  {clients:>2} clients: service {entry['service_rps']:>9.1f} req/s,"
                f" naive {entry['naive_rps']:>7.1f} req/s ({entry['speedup']}x)"
            )
        print(
            f"  64 clients, literal variants: {results['literal_variants_rps_64']:.1f} req/s"
        )
        sections.append(results)
    if args.shard_tier or args.shard_only:
        shard = bench_shard_tier(
            quick=args.quick, worker_counts=tuple(args.shard_workers)
        )
        sections.append(shard)
        print(f"shard tier ({shard['cpu_count']} cores): {shard['equivalence']}")
        for workers, entry in shard["workers"].items():
            top = entry["clients"][str(CLIENT_COUNTS[-1])]
            print(
                f"  {workers} worker(s), {CLIENT_COUNTS[-1]} clients:"
                f" {top['rps']:>8.1f} req/s"
                f" (p50 {top['p50_ms']:.2f}ms, p95 {top['p95_ms']:.2f}ms,"
                f" {entry['speedup_vs_single_process']}x single-process)"
            )
    return exit_status(sections)


if __name__ == "__main__":
    raise SystemExit(main())
