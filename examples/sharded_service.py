#!/usr/bin/env python
"""The talking DBMS on every core: the multi-process shard tier.

A :class:`repro.ShardRouter` spawns two worker processes, each owning a
private replica of the movie database behind its own
``NarrationService`` session, and routes requests by a stable hash of
their SQL *shape*, modulo the worker count — so every literal variant of
one query lands on the worker whose compiled plans already know that
shape.  Mutations
broadcast to every replica under a sequence number, reads routed after a
write wait for that worker's ack, and one worker is SIGKILLed mid-demo
to show supervision: the router respawns it and replays the mutation
log before reopening it, while results stay byte-identical to a
single-process session throughout.

Run with::

    PYTHONPATH=src python examples/sharded_service.py
"""

import asyncio
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import ShardRouter, WorkerCrashed  # noqa: E402

QUERY_TEMPLATE = (
    "select m.title from MOVIES m, CAST c, ACTOR a"
    " where m.id = c.mid and c.aid = a.id and a.name = '{actor}'"
)
ACTORS = ["Brad Pitt", "Mark Hamill", "Eric Bana", "Winona Ryder"]


async def retry_until_respawned(call):
    """Shard-tier callers own the retry policy; this one just waits."""
    for _ in range(120):
        try:
            return await call()
        except WorkerCrashed:
            await asyncio.sleep(0.25)
    raise RuntimeError("worker never came back")


async def main() -> None:
    async with ShardRouter(
        "repro.datasets.movies:movie_database",
        spec_factory="repro.content.presets:movie_spec",
        workers=2,
    ) as router:
        # Same shape, different literals: all four land on one worker
        # whose phrase plan serves every variant.
        for actor in ACTORS:
            translation = await router.translate(QUERY_TEMPLATE.format(actor=actor))
            print(f"  {translation.text}")

        # A write broadcasts to both replicas; the read after it cannot
        # run anywhere until its worker has acked the write.
        await router.execute("insert into GENRE values (5, 'heist')")
        result = await router.execute(
            "select g.genre from GENRE g where g.mid = 5"
        )
        print(f"\nafter the write, mid 5 genres now include: {[r['genre'] for r in result.rows]}")

        # Crash drill: kill worker 0 outright.  In-flight requests fail
        # with the typed WorkerCrashed; the router respawns the worker and
        # replays the mutation log before the worker serves again.
        pid = router.kill_worker(0)
        print(f"\nSIGKILLed worker 0 (pid {pid}); waiting for the respawn ...")
        result = await retry_until_respawned(
            lambda: router.execute("select g.genre from GENRE g where g.mid = 5")
        )
        print(f"respawned replica still sees the write: {[r['genre'] for r in result.rows]}")

        stats = await router.stats()
        fleet = stats["fleet"]
        print(
            f"\nfleet: {fleet['live_workers']} workers,"
            f" {sum(fleet['requests_by_kind'].values())} requests,"
            f" {stats['router']['mutations']} mutation(s) broadcast,"
            f" {stats['router']['respawns']} respawn(s)"
        )


if __name__ == "__main__":
    asyncio.run(main())
