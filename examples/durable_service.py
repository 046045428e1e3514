#!/usr/bin/env python
"""The talking DBMS that survives losing every process.

A durable :class:`repro.NarrationSession` logs every mutation to a
write-ahead log *before* applying it (group-commit fsync by default)
and checkpoints the database into atomic snapshots keyed by the log
sequence.  This demo writes a few rows, "loses" the process by simply
closing the service, and recovers everything from disk twice over:
once into a fresh durable session (snapshot + WAL replay), and once
through the raw :meth:`repro.storage.Database.recover` path — then
tears the WAL's final record the way a mid-write crash would and shows
recovery shrugging it off.  Requests run on the service's event loop;
only one that waits on the disk (a write that completes a group commit,
a checkpoint) takes a thread.  Three inserts never fill the group
commit of eight, so every request here reports as run on the loop.

Run with::

    PYTHONPATH=src python examples/durable_service.py
"""

import asyncio
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import NarrationService  # noqa: E402
from repro.datasets import movie_database  # noqa: E402
from repro.service.faults import tear_wal_tail  # noqa: E402
from repro.storage import Database, DurabilityConfig, scan_wal  # noqa: E402

NEW_MOVIES = [
    (101, "Heat", 1995),
    (102, "Ronin", 1998),
    (103, "Sexy Beast", 2000),
]
READ = "select m.title from MOVIES m where m.year > 1990"


async def run_service(directory: Path, mutations) -> list:
    """One 'process lifetime': recover from ``directory``, apply, read."""
    config = DurabilityConfig(directory=directory, fsync="batch", batch_every=8)
    async with NarrationService() as service:
        session = service.session(database=movie_database(), durability=config)
        for sql in mutations:
            await session.execute(sql)
        result = await session.execute(READ)
        stats = session.stats()
        durability, requests = stats["durability"], stats["requests"]
        print(
            f"  recovered {durability['replayed']} replayed record(s),"
            f" wal seq {durability['wal']['last_seq']},"
            f" {len(result.rows)} post-1990 titles visible;"
            f" {requests['inline']} request(s) on the loop,"
            f" {requests['pooled']} on a thread"
        )
        return [row["title"] for row in result.rows]


async def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-durable-") as scratch:
        directory = Path(scratch) / "state"

        # Lifetime 1: write three movies, then lose the process (the
        # context manager exit stands in for SIGKILL — fsync="batch"
        # means everything acked is already in the page-cache-backed
        # log, and the final commit() on close syncs it).
        print("lifetime 1: three inserts, then the process goes away")
        inserts = [
            f"insert into MOVIES values ({mid}, '{title}', {year})"
            for mid, title, year in NEW_MOVIES
        ]
        before = await run_service(directory, inserts)

        # Lifetime 2: a brand-new process recovers from the same
        # directory — snapshot fast-forward plus WAL replay — and sees
        # exactly what the dead one acknowledged.
        print("lifetime 2: a fresh process recovers the same directory")
        after = await run_service(directory, [])
        assert after == before, "recovery must reproduce the acked state"

        # The raw recovery path, no service in sight.
        database, report = Database.recover(directory)
        titles = {row["title"] for row in database.table("MOVIES").rows()}
        assert {title for _, title, _ in NEW_MOVIES} <= titles
        print(
            f"Database.recover: snapshot seq {report['snapshot_seq']},"
            f" {report['replayed']} record(s) replayed, all titles present"
        )

        # Crash forensics: tear the log mid-final-record, simulating the
        # damage a power cut leaves behind a write that was never
        # acknowledged — recovery keeps the valid prefix silently.
        wal_path = directory / "wal.log"
        records_before = len(scan_wal(wal_path, strict=False).records)
        if records_before:
            tear_wal_tail(wal_path, seed=7)
            scan = scan_wal(wal_path, strict=False)
            print(
                f"tore the final record: {records_before} -> "
                f"{len(scan.records)} intact record(s), torn tail detected:"
                f" {scan.torn}"
            )
            database, report = Database.recover(directory)
            print(
                f"recovery after the tear: {report['replayed']} record(s)"
                f" replayed, {report['torn_bytes']} torn byte(s) dropped"
            )
        else:
            # A checkpoint compacted the log to empty — nothing to tear,
            # which is itself the durability story working.
            print("log already compacted by a checkpoint; nothing to tear")


if __name__ == "__main__":
    asyncio.run(main())
