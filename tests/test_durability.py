"""Durability suite: the system survives losing every process.

Three escalating drills over the WAL + snapshot layer
(``docs/architecture.md``, "Durability"):

* **Session round trip** — a ``NarrationSession`` configured with a
  :class:`~repro.storage.DurabilityConfig` persists every mutation; a
  fresh session over the same directory serves byte-identical reads.
* **Deterministic crash** — a child process runs a durable
  ``ShardRouter`` workload and dies *between a WAL append and its
  acknowledgement* (``REPRO_FAULTS wal_crash_nth``, exit 139 — the
  seeded SIGKILL).  Recovery must surface every acknowledged mutation
  (acked ⊆ logged) and match a single-process oracle that replays the
  recovered log, byte for byte.
* **Whole-tier SIGKILL** — the parent kills the child's entire process
  group mid-workload (router *and* every worker, no warning), then
  recovers from disk alone.

The drills run in whatever execution mode the suite runs in; CI runs
the suite both compiled and with ``REPRO_ORACLE=1``.
"""

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.content.presets import movie_spec
from repro.datasets import movie_database
from repro.service import NarrationService, ShardRouter, WorkerCrashed
from repro.storage import DurabilityConfig, latest_snapshot, scan_wal
from repro.storage.wal import WAL_NAME

DB_FACTORY = "repro.datasets.movies:movie_database"
SPEC_FACTORY = "repro.content.presets:movie_spec"

TIMEOUT = 120

READS = [
    "select m.title from MOVIES m where m.year > 2010",
    "select count(*) from MOVIES",
    "select g.genre from GENRE g where g.mid = 1",
]


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


def drill_sql(index):
    return f"insert into MOVIES values ({900 + index}, 'Drill {index}', {1980 + index % 40})"


async def retry_crashed(call, attempts=80, delay=0.25):
    for _ in range(attempts):
        try:
            return await call()
        except WorkerCrashed:
            await asyncio.sleep(delay)
    raise AssertionError("worker never came back")


async def oracle_outputs(mutations):
    """Single-process oracle: apply ``mutations`` in order, run READS."""
    async with NarrationService() as service:
        database = movie_database()
        session = service.session(database=database, spec=movie_spec(database.schema))
        for sql in mutations:
            await session.execute(sql)
        return [await session.execute(sql) for sql in READS]


async def recovered_outputs(directory):
    """Recover a shard tier from ``directory`` and run READS through it."""
    config = DurabilityConfig(directory=directory, fsync="never", checkpoint_every=0)
    async with ShardRouter(
        DB_FACTORY, spec_factory=SPEC_FACTORY, workers=2, durability=config
    ) as router:
        outputs = [await router.execute(sql) for sql in READS]
        stats = await router.stats()
    return outputs, stats


def logged_mutations(directory):
    """Every mutation the durability directory knows, in sequence order.

    With no checkpoint taken (the drills disable the cadence) the WAL
    alone is the full history.
    """
    scan = scan_wal(Path(directory) / WAL_NAME, strict=False)
    assert scan.error is None, f"drill log unexpectedly corrupt: {scan.error}"
    return [record.payload["sql"] for record in scan.records]


def acked_mutations(path):
    """The acked side file's complete lines (a torn final line is the
    write the crash interrupted — exactly like the WAL's torn tail)."""
    data = Path(path).read_bytes().decode()
    lines = data.split("\n")
    if lines and lines[-1] != "":
        lines = lines[:-1]  # incomplete final line: never acked to anyone
    else:
        lines = lines[:-1]
    return [line for line in lines if line]


def assert_byte_identical(got, want):
    assert len(got) == len(want)
    for left, right in zip(got, want):
        assert left == right
        assert left.rows == right.rows


#: The crash-drill child: a durable shard tier that records every
#: *acknowledged* mutation to a side file (flushed and fsynced before the
#: next request, so the file never claims an ack that did not happen).
CHILD = r"""
import asyncio, os, sys
from repro.service import ShardRouter
from repro.service.faults import FaultInjector
from repro.storage import DurabilityConfig

directory, acked_path, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
config = DurabilityConfig(
    directory=directory,
    fsync="batch",
    batch_every=4,
    checkpoint_every=0,
    injector=FaultInjector.from_env("router-wal"),
)

async def main():
    router = ShardRouter(
        "repro.datasets.movies:movie_database",
        spec_factory="repro.content.presets:movie_spec",
        workers=2,
        durability=config,
    )
    await router.start()
    with open(acked_path, "a") as acked:
        for index in range(count):
            sql = (
                f"insert into MOVIES values ({900 + index},"
                f" 'Drill {index}', {1980 + index % 40})"
            )
            await router.execute(sql)
            acked.write(sql + "\n")
            acked.flush()
            os.fsync(acked.fileno())
    await router.aclose()

asyncio.run(main())
"""


def child_env(faults=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parent.parent / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    env.pop("REPRO_FAULTS", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    return env


# ---------------------------------------------------------------------------
# Session-level durability
# ---------------------------------------------------------------------------


class TestSessionDurability:
    def test_round_trip_across_service_restarts(self, tmp_path):
        config = DurabilityConfig(directory=tmp_path, fsync="never")
        mutations = [drill_sql(index) for index in range(5)]

        async def first_life():
            async with NarrationService() as service:
                session = service.session(
                    database=movie_database(), durability=config
                )
                for sql in mutations:
                    await session.execute(sql)
                stats = session.stats()["durability"]
                return [await session.execute(sql) for sql in READS], stats

        async def second_life():
            async with NarrationService() as service:
                session = service.session(
                    database=movie_database(), durability=config
                )
                stats = session.stats()["durability"]
                return [await session.execute(sql) for sql in READS], stats

        before, first_stats = run(first_life())
        # The baseline snapshot at attach means recovery never needs the
        # database factory's data again.
        assert first_stats["checkpoints"] >= 1
        assert first_stats["recovered"] is False
        after, second_stats = run(second_life())
        assert_byte_identical(after, before)
        assert second_stats["recovered"] is True
        assert second_stats["replayed"] == len(mutations)

    def test_explicit_checkpoint_compacts_the_log(self, tmp_path):
        config = DurabilityConfig(
            directory=tmp_path, fsync="never", checkpoint_every=0
        )

        async def main():
            async with NarrationService() as service:
                session = service.session(
                    database=movie_database(), durability=config
                )
                for index in range(3):
                    await session.execute(drill_sql(index))
                seq = await session.checkpoint()
                return seq, session.stats()["durability"]

        seq, stats = run(main())
        assert latest_snapshot(tmp_path).wal_seq == seq
        assert scan_wal(config.wal_path).records == []
        assert stats["checkpoints"] == 2  # the attach baseline + ours

    def test_durability_without_a_database_is_rejected(self, tmp_path):
        config = DurabilityConfig(directory=tmp_path)

        async def main():
            async with NarrationService() as service:
                with pytest.raises(ValueError):
                    service.session(durability=config)

        run(main())

    def test_checkpoint_without_durability_is_rejected(self):
        async def main():
            async with NarrationService() as service:
                session = service.session(database=movie_database())
                with pytest.raises(ValueError):
                    await session.checkpoint()

        run(main())


# ---------------------------------------------------------------------------
# The deterministic crash drill (3 seeded schedules)
# ---------------------------------------------------------------------------


class TestCrashDrill:
    @pytest.mark.parametrize(
        "seed,crash_nth",
        [(11, 7), (23, 19), (47, 36)],
        ids=["seed11-crash7", "seed23-crash19", "seed47-crash36"],
    )
    def test_crash_between_append_and_ack_recovers_byte_identical(
        self, tmp_path, seed, crash_nth
    ):
        directory = tmp_path / "state"
        acked_path = tmp_path / "acked.txt"
        faults = (
            f"seed={seed},wal_crash_nth={crash_nth}"
            ",fsync_stall=0.25,fsync_stall_s=0.01"
        )
        result = subprocess.run(
            [sys.executable, "-c", CHILD, str(directory), str(acked_path), "50"],
            env=child_env(faults),
            capture_output=True,
            text=True,
            timeout=TIMEOUT,
        )
        # The injector's crash is os._exit(139): the seeded SIGKILL.
        assert result.returncode == 139, result.stderr[-2000:]

        acked = acked_mutations(acked_path)
        logged = logged_mutations(directory)
        # The crash landed after append crash_nth, before its ack: the
        # log holds exactly one mutation nobody was ever told about.
        assert len(acked) == crash_nth - 1
        assert logged[: len(acked)] == acked  # acked ⊆ logged, in order
        assert len(logged) == crash_nth

        outputs, stats = run(recovered_outputs(directory))
        expected = run(oracle_outputs(logged))
        assert_byte_identical(outputs, expected)
        durability = stats["router"]["durability"]
        assert durability["recovered_mutations"] == len(logged)
        assert stats["router"]["mutations"] == len(logged)


# ---------------------------------------------------------------------------
# Losing every process at once
# ---------------------------------------------------------------------------


class TestWholeTierSigkill:
    def test_sigkill_the_entire_tier_mid_workload(self, tmp_path):
        directory = tmp_path / "state"
        acked_path = tmp_path / "acked.txt"
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(directory), str(acked_path), "400"],
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,  # its own process group: killable whole
        )
        try:
            deadline = time.monotonic() + TIMEOUT
            while time.monotonic() < deadline:
                if acked_path.exists() and len(acked_mutations(acked_path)) >= 10:
                    break
                if child.poll() is not None:
                    raise AssertionError(
                        f"child exited early with {child.returncode}"
                    )
                time.sleep(0.05)
            else:
                raise AssertionError("child never acknowledged 10 mutations")
            # Lose every process: router and both workers, no warning.
            os.killpg(os.getpgid(child.pid), signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup path
                child.kill()
                child.wait(timeout=30)

        acked = acked_mutations(acked_path)
        logged = logged_mutations(directory)
        assert len(acked) >= 10
        # Every acknowledged mutation survived (the log may additionally
        # hold a final append whose ack the SIGKILL outran).
        assert logged[: len(acked)] == acked
        assert len(logged) - len(acked) <= 1

        outputs, stats = run(recovered_outputs(directory))
        expected = run(oracle_outputs(logged))
        assert_byte_identical(outputs, expected)
        assert stats["router"]["durability"]["recovered_mutations"] == len(logged)


# ---------------------------------------------------------------------------
# Checkpointing and compaction on the router
# ---------------------------------------------------------------------------


class TestRouterCheckpointing:
    def test_cadence_checkpoints_bound_the_mutation_log(self, tmp_path):
        config = DurabilityConfig(
            directory=tmp_path, fsync="never", checkpoint_every=4
        )
        mutations = [drill_sql(index) for index in range(10)]

        async def first_life():
            async with ShardRouter(
                DB_FACTORY, spec_factory=SPEC_FACTORY, workers=2, durability=config
            ) as router:
                for sql in mutations:
                    await router.execute(sql)
                outputs = [await router.execute(sql) for sql in READS]
                return outputs, await router.stats()

        outputs, stats = run(first_life())
        router_stats = stats["router"]
        durability = router_stats["durability"]
        # 10 mutations at a cadence of 4: two checkpoints, and the
        # in-memory log is bounded by compaction instead of growing
        # with the workload (satellite: the unbounded-log fix).
        assert router_stats["compactions"] == 2
        assert durability["checkpoints"] == 2
        assert durability["snapshot_seq"] == 8
        assert router_stats["mutation_log"] == 2  # seqs 9, 10 only
        assert durability["since_checkpoint"] == 2
        assert latest_snapshot(tmp_path).wal_seq == 8
        assert [r.seq for r in scan_wal(config.wal_path).records] == [9, 10]

        # A whole-router restart recovers snapshot + tail and serves the
        # same reads the first life did.
        recovered, second_stats = run(recovered_outputs(tmp_path))
        assert_byte_identical(recovered, outputs)
        assert second_stats["router"]["durability"]["recovered_mutations"] == 2

    def test_explicit_checkpoint_and_respawn_fast_forward(self, tmp_path):
        config = DurabilityConfig(
            directory=tmp_path, fsync="never", checkpoint_every=0
        )

        async def main():
            async with ShardRouter(
                DB_FACTORY, spec_factory=SPEC_FACTORY, workers=2, durability=config
            ) as router:
                for index in range(3):
                    await router.execute(drill_sql(index))
                seq = await router.checkpoint()
                assert seq == 3
                # Kill one worker: its replacement restores the snapshot
                # and fast-forwards the watermark instead of replaying
                # the (compacted-away) history.
                router.kill_worker(0)
                outputs = [
                    await retry_crashed(lambda sql=sql: router.execute(sql))
                    for sql in READS
                ]
                handle = router._handles[0]
                # Worker 1 may have served every read before the router
                # even noticed the kill, while the dead incarnation's
                # ready gate was still set: wait for the respawn to
                # begin (the gate is cleared by then), then for the
                # replacement to open.
                while handle.respawns == 0:
                    await asyncio.sleep(0.01)
                await asyncio.wait_for(handle.ready.wait(), TIMEOUT)
                assert handle.restored_seq == 3
                assert handle.applied_seq >= 3
                # And mutations keep flowing after the respawn.
                await router.execute(drill_sql(3))
                return outputs, await router.stats()

        outputs, stats = run(main())
        expected = run(oracle_outputs([drill_sql(index) for index in range(3)]))
        assert_byte_identical(outputs, expected)
        assert stats["router"]["respawns"] >= 1
        assert stats["router"]["durability"]["snapshot_seq"] == 3

    def test_checkpoint_without_durability_is_rejected(self):
        async def main():
            async with ShardRouter(DB_FACTORY, workers=1) as router:
                with pytest.raises(ValueError):
                    await router.checkpoint()

        run(main())
