"""Durability cost benchmark: what the WAL + fsync actually charge.

The durability layer's claim (``docs/performance.md``) is that
log-before-apply is affordable at the default group-commit policy: the
per-mutation cost is one pickle + crc32 + unbuffered ``write`` (a few
microseconds) plus an fsync *amortised over the batch*, which a real
mutation — parse, plan, execute, index maintenance — hides almost
entirely.  ``fsync="always"`` is the honest worst case: one disk sync
per mutation, priced so callers choose it knowingly.

Four measurements:

* ``embedded`` — raw :class:`~repro.storage.Database` insert throughput
  with no durability, then under ``never``/``batch``/``always``.  This
  is the microscope: a plain insert is ~10us, so every microsecond of
  WAL overhead is visible as slowdown.
* ``service`` — the same comparison through a ``NarrationSession``
  executing INSERT statements, i.e. what callers actually observe.
  Every INSERT runs on the event loop, a durable one whose append syncs
  the log (the group commit under ``batch``, every append under
  ``always``) included: it waits for the sync there.  The
  **budget** lives here: ``fsync="batch"`` must stay within 2x of
  non-durable throughput, asserted in-run.  Each policy also records the
  WAL's own sync count for the inserts and the closing flush
  (``wal_syncs``): group commit promises a count — at most one sync per
  ``batch_every`` inserts plus the flush under ``batch``, one per insert
  under ``always`` — and ``check_regression.py`` guards it.  The timed
  ``batch_vs_always_ratio`` is information only: on a fast disk the two
  policies differ by less than the run-to-run spread.
* ``group_commit`` — appends/second when 1 / 8 / 64 clients share each
  fsync (``batch_every``), showing the amortisation curve; the
  64-vs-1 ratio is information only.
* ``recovery`` — ``Database.recover`` wall time against WAL length:
  recovery is a linear replay, and the numbers say what a
  ``checkpoint_every`` choice buys.
"""

from __future__ import annotations

import asyncio
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from budgets import exit_status, record  # noqa: E402
from repro.datasets import movie_database  # noqa: E402
from repro.service import NarrationService  # noqa: E402
from repro.storage import (  # noqa: E402
    Database,
    DurabilityConfig,
    DurabilityManager,
    WriteAheadLog,
)

__all__ = ["bench_durability"]

#: The acceptance budget: group-commit durability within 2x of in-memory.
BUDGET_MAX_SLOWDOWN = 2.0

FSYNC_POLICIES = ("never", "batch", "always")


def _row(index):
    return {"id": 20_000 + index, "title": f"Bench {index}", "year": 1980 + index % 40}


def _sql(index):
    return (
        f"insert into MOVIES values ({20_000 + index},"
        f" 'Bench {index}', {1980 + index % 40})"
    )


def _fresh_dir(scratch, label):
    directory = Path(scratch) / label
    if directory.exists():  # pragma: no cover - repeats reuse labels
        shutil.rmtree(directory)
    return directory


def _embedded_run(count, config=None):
    database = movie_database()
    manager = None
    if config is not None:
        manager = DurabilityManager(config)
        database = manager.attach(database)
    start = time.perf_counter()
    for index in range(count):
        database.insert("MOVIES", _row(index))
    if manager is not None:
        manager.commit()
    elapsed = time.perf_counter() - start
    if manager is not None:
        manager.close()
    return elapsed


def _service_run(count, durability=None):
    """Seconds for ``count`` INSERTs through a session, and their WAL syncs."""

    async def main():
        async with NarrationService() as service:
            session = service.session(
                database=movie_database(), durability=durability
            )
            wal = session.durability.wal if durability is not None else None
            before = wal.stats()["syncs"] if wal is not None else 0
            start = time.perf_counter()
            for index in range(count):
                await session.execute(_sql(index))
            elapsed = time.perf_counter() - start
        # Closing the service flushed whatever the last batch left pending.
        syncs = wal.stats()["syncs"] - before if wal is not None else 0
        return elapsed, syncs

    return asyncio.run(main())


def _median_over(repeats, run):
    return statistics.median(run() for _ in range(repeats))


def bench_durability(quick: bool = False) -> dict:
    repeats = 2 if quick else 3
    embedded_n = 500 if quick else 2000
    service_n = 150 if quick else 400
    group_n = 512 if quick else 2048
    recovery_lengths = (100, 500) if quick else (200, 1000, 4000)

    scratch = Path(tempfile.mkdtemp(prefix="bench-durability-"))
    try:
        # Embedded: the raw per-mutation cost under the microscope.
        embedded = {}
        plain = _median_over(repeats, lambda: _embedded_run(embedded_n))
        embedded["plain_ops_s"] = round(embedded_n / plain, 1)
        for policy in FSYNC_POLICIES:
            durable = _median_over(
                repeats,
                lambda policy=policy: _embedded_run(
                    embedded_n,
                    DurabilityConfig(
                        directory=_fresh_dir(scratch, f"embedded-{policy}"),
                        fsync=policy,
                        checkpoint_every=0,
                    ),
                ),
            )
            embedded[f"{policy}_ops_s"] = round(embedded_n / durable, 1)
            embedded[f"{policy}_slowdown"] = round(durable / plain, 3)

        # Service: what a caller issuing INSERT statements observes —
        # and where the acceptance budget is enforced.
        service = {
            "budget_max_slowdown": BUDGET_MAX_SLOWDOWN,
            "inserts": service_n,
            "batch_every": DurabilityConfig.batch_every,
            "wal_syncs": {},
        }
        plain = _median_over(repeats, lambda: _service_run(service_n)[0])
        service["plain_ops_s"] = round(service_n / plain, 1)
        for policy in FSYNC_POLICIES:
            runs = [
                _service_run(
                    service_n,
                    DurabilityConfig(
                        directory=_fresh_dir(scratch, f"service-{policy}"),
                        fsync=policy,
                        checkpoint_every=0,
                    ),
                )
                for _ in range(repeats)
            ]
            durable = statistics.median(elapsed for elapsed, _ in runs)
            service[f"{policy}_ops_s"] = round(service_n / durable, 1)
            service[f"{policy}_slowdown"] = round(durable / plain, 3)
            service["wal_syncs"][policy] = max(syncs for _, syncs in runs)
        service["batch_vs_always_ratio"] = round(
            service["batch_ops_s"] / service["always_ops_s"], 1
        )
        # The in-run guard: group-commit durability must stay affordable.
        record(
            service,
            service["batch_slowdown"] <= BUDGET_MAX_SLOWDOWN,
            f"durable fsync=batch throughput is {service['batch_slowdown']:.2f}x"
            f" the non-durable baseline (budget {BUDGET_MAX_SLOWDOWN}x)",
        )

        # Group commit: clients sharing one fsync per batch.
        group_commit = {}
        payload = ("insert", "MOVIES", _row(0), True)
        for clients in (1, 8, 64):
            def run(clients=clients):
                path = _fresh_dir(scratch, f"group-{clients}") / "wal.log"
                wal = WriteAheadLog(
                    path,
                    fsync="batch" if clients > 1 else "always",
                    batch_every=max(clients, 1),
                )
                start = time.perf_counter()
                for _ in range(group_n):
                    wal.append(payload)
                wal.commit()
                elapsed = time.perf_counter() - start
                wal.close()
                return elapsed

            elapsed = _median_over(repeats, run)
            group_commit[f"clients_{clients}_appends_s"] = round(
                group_n / elapsed, 1
            )
        # Informational, not a guarded speedup: the ratio is fsync-speed
        # vs CPU-speed and swings wildly across filesystems (a tmpfs CI
        # runner collapses it without anything having regressed).
        group_commit["amortisation_group64_vs_group1"] = round(
            group_commit["clients_64_appends_s"]
            / group_commit["clients_1_appends_s"],
            1,
        )

        # Recovery: linear replay priced per log length.
        recovery = {}
        for length in recovery_lengths:
            directory = _fresh_dir(scratch, f"recovery-{length}")
            manager = DurabilityManager(
                DurabilityConfig(
                    directory=directory, fsync="never", checkpoint_every=0
                )
            )
            database = manager.attach(movie_database())
            for index in range(length):
                database.insert("MOVIES", _row(index))
            manager.close()

            def run(directory=directory):
                start = time.perf_counter()
                Database.recover(directory)
                return time.perf_counter() - start

            elapsed = _median_over(repeats, run)
            recovery[str(length)] = {
                "seconds": round(elapsed, 4),
                "records_per_s": round(length / elapsed, 1),
            }

        return {
            "embedded": embedded,
            "service": service,
            "group_commit": group_commit,
            "recovery": recovery,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    import json

    result = bench_durability(quick="--quick" in sys.argv)
    print(json.dumps(result, indent=2))
    raise SystemExit(exit_status(result))
