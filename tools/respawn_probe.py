#!/usr/bin/env python
"""Respawn probe: how long a SIGKILLed shard worker keeps its slot closed.

Each run starts a two-worker :class:`~repro.service.ShardRouter` over
the movie database and sends every probe text through it once
(translate, then execute).  The texts are copies of the movies corpus
with every table alias renamed per text, so each text is a shape no
cache has seen.  Then worker 0 is SIGKILLed and the probe records:

``reopen_ms``
    From the kill until the respawned worker's ready gate opens.
``write_wait_ms``
    How long a write issued while the respawn holds the mutation lock
    waits for its ack.
``next_pass_ms``
    One more pass over the same texts once the worker has reopened.

Usage::

    python tools/respawn_probe.py                 # 3 runs, 5 copies
    python tools/respawn_probe.py --runs 5 --json out.json

Point ``PYTHONPATH`` at another tree's ``src`` to probe that tree.
Besides the router's constructor and ``kill_worker`` the probe reads
two internals, a worker handle's ready gate and the router's mutation
lock, so it runs unchanged on any tree that has both.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import statistics
import sys
import time
from pathlib import Path

if not os.environ.get("PYTHONPATH"):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets.domains import get_domain  # noqa: E402
from repro.service import ShardRouter  # noqa: E402
from repro.sql.shape import shape_hash  # noqa: E402

DB_FACTORY = "repro.datasets.movies:movie_database"
SPEC_FACTORY = "repro.content.presets:movie_spec"

_SQL_WORDS = frozenset(
    "as where on join inner left right full cross natural group order having"
    " limit union and or not set values select from".split()
)


def fresh_aliases(sql: str, tables, tag: str) -> str:
    """``sql`` with every ``TABLE alias`` declaration renamed ``alias_tag``."""
    for table in tables:
        pattern = rf"\b{table}(\s+(?:as\s+)?)([A-Za-z_]\w*)\b"
        for match in list(re.finditer(pattern, sql, flags=re.IGNORECASE)):
            alias = match.group(2)
            if alias.lower() in _SQL_WORDS or alias == table:
                continue
            renamed = f"{alias}_{tag}"
            sql = re.sub(
                rf"\b{table}(\s+(?:as\s+)?){alias}\b",
                rf"{table}\g<1>{renamed}",
                sql,
                flags=re.IGNORECASE,
            )
            sql = re.sub(rf"\b{alias}\.", f"{renamed}.", sql)
    return sql


def probe_texts(copies: int):
    domain = get_domain("movies")
    tables = domain.schema().relation_names
    corpus = [" ".join(query.sql.split()) for query in domain.corpus()]
    texts = [sql for _ in range(copies) for sql in corpus]
    return [fresh_aliases(sql, tables, f"p{index}") for index, sql in enumerate(texts)]


async def _send(router, texts) -> None:
    for sql in texts:
        await router.translate(sql)
        await router.execute(sql)


async def probe(texts, run: int) -> dict:
    router = ShardRouter(DB_FACTORY, spec_factory=SPEC_FACTORY, workers=2)
    await router.start()
    try:
        await _send(router, texts)
        handle = router._handles[0]
        killed = time.perf_counter()
        router.kill_worker(0)
        # Issue the write once the respawn holds the mutation lock.
        while handle.ready.is_set() or not router._mutation_lock.locked():
            await asyncio.sleep(0.0005)
        issued = time.perf_counter()
        write = asyncio.ensure_future(
            router.execute(f"insert into GENRE values (1, 'probe {run}')")
        )
        await handle.ready.wait()
        reopened = time.perf_counter()
        await write
        written = time.perf_counter()
        started = time.perf_counter()
        await _send(router, texts)
        next_pass = time.perf_counter() - started
        stats = await router.stats()
        if stats["router"]["respawns"] != 1:
            raise AssertionError(f"expected one respawn, saw {stats['router']}")
    finally:
        await router.aclose()
    return {
        "reopen_ms": round((reopened - killed) * 1e3, 1),
        "write_wait_ms": round((written - issued) * 1e3, 1),
        "next_pass_ms": round(next_pass * 1e3, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--copies", type=int, default=5, help="renamed copies of the corpus")
    parser.add_argument("--json", help="write every run's numbers here")
    args = parser.parse_args(argv)
    texts = probe_texts(args.copies)
    shapes = len({shape_hash(sql) for sql in texts})
    print(f"{len(texts)} texts, {shapes} distinct shapes, {args.runs} runs")
    runs = []
    for run in range(args.runs):
        result = asyncio.run(probe(texts, run))
        runs.append(result)
        print(json.dumps(result), flush=True)
    for key in ("reopen_ms", "write_wait_ms", "next_pass_ms"):
        values = sorted(result[key] for result in runs)
        print(
            f"{key}: median {statistics.median(values):.1f}"
            f" (min {values[0]:.1f}, max {values[-1]:.1f})"
        )
    if args.json:
        Path(args.json).write_text(
            json.dumps({"texts": len(texts), "shapes": shapes, "runs": runs}, indent=2)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
