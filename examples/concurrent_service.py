#!/usr/bin/env python
"""The DBMS talks back to many users at once: the concurrent narration service.

Sixteen simulated clients share one :class:`repro.NarrationService`
session over the movie database.  Translation requests that repeat a
shape are served from compiled phrase plans, execution shares one
compiled executor, and narration reads the maintained ranking — all
byte-identical to what each client would get from a private synchronous
pipeline.  Every request, a translate its phrase plan answers included,
runs to completion on the event loop, one at a time in arrival order;
the service starts no thread.

Run with::

    PYTHONPATH=src python examples/concurrent_service.py
"""

import asyncio
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import NarrationService, movie_database, movie_spec  # noqa: E402

QUERY_TEMPLATE = (
    "select m.title from MOVIES m, CAST c, ACTOR a"
    " where m.id = c.mid and c.aid = a.id and a.name = '{actor}'"
)
ACTORS = [
    "Brad Pitt", "Scarlett Johansson", "Mark Hamill", "Morgan Freeman",
    "Eric Bana", "Christina Ricci", "Jodie Foster", "Winona Ryder",
]


async def translating_client(session, client_id: int) -> str:
    actor = ACTORS[client_id % len(ACTORS)]
    translation = await session.translate(QUERY_TEMPLATE.format(actor=actor))
    return f"client {client_id:>2}: {translation.text}"


async def curious_client(session, client_id: int) -> str:
    result = await session.execute(
        "select m.title, m.year from MOVIES m where m.year > 2000"
    )
    return f"client {client_id:>2}: got {result.row_count} post-2000 movies"


async def browsing_client(session, client_id: int) -> str:
    story = await session.narrate_database()
    first = story.split(". ")[0]
    return f"client {client_id:>2}: {first}."


async def main() -> None:
    database = movie_database()
    async with NarrationService() as service:
        session = service.session(database=database, spec_factory=movie_spec)

        handlers = [translating_client, curious_client, browsing_client]
        tasks = [
            handlers[client_id % len(handlers)](session, client_id)
            for client_id in range(16)
        ]
        for line in await asyncio.gather(*tasks):
            print(line)

        print("\n--- empty-answer explanation, shared executor ---")
        explanation = await session.explain_empty(
            "select m.title from MOVIES m where m.year = 1800"
        )
        print(explanation.text)

        print("\n--- session stats ---")
        print(json.dumps(session.stats(), indent=2))


if __name__ == "__main__":
    asyncio.run(main())
