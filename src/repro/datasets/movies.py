"""The movie database of the paper's Figure 1, with seed data.

The schema matches Figure 1 exactly:

* ``MOVIES(id, title, year)``
* ``DIRECTOR(id, name, bdate, blocation)``
* ``DIRECTED(mid, did)``     — bridge between MOVIES and DIRECTOR
* ``ACTOR(id, name)``
* ``CAST(mid, aid, role)``   — bridge between MOVIES and ACTOR
* ``GENRE(mid, genre)``

The seed contents include precisely the tuples the paper's narratives
mention (Woody Allen born in Brooklyn on December 1, 1935 with Match
Point/Melinda and Melinda/Anything Else; Brad Pitt; G. Loucas with action
movies) so that the reproduced narratives can be compared verbatim, plus a
handful of additional rows so that queries have non-trivial answers.
"""

from __future__ import annotations

import datetime
from typing import Dict, List

from repro.catalog.builder import SchemaBuilder
from repro.catalog.schema import Schema
from repro.storage.database import Database


def movie_schema() -> Schema:
    """The schema of the paper's Figure 1, annotated for translation."""
    return (
        SchemaBuilder("movies", description="Movie database of Figure 1")
        .relation("MOVIES", concept="movie", weight=3.0)
        .column("id", "integer", primary_key=True)
        .column("title", "text", heading=True, weight=3.0)
        .column("year", "integer", caption="release year", weight=2.0)
        .done()
        .relation("DIRECTOR", concept="director", weight=2.5)
        .column("id", "integer", primary_key=True)
        .column("name", "text", heading=True, weight=3.0)
        .column("bdate", "date", caption="birth date", weight=1.5)
        .column("blocation", "text", caption="birth location", weight=1.5)
        .done()
        .relation("DIRECTED", concept="directed", bridge=True, weight=1.0)
        .column("mid", "integer", primary_key=True)
        .column("did", "integer", primary_key=True)
        .done()
        .relation("ACTOR", concept="actor", weight=2.5)
        .column("id", "integer", primary_key=True)
        .column("name", "text", heading=True, weight=3.0)
        .done()
        .relation("CAST", concept="cast", bridge=True, weight=1.0)
        .column("mid", "integer", primary_key=True)
        .column("aid", "integer", primary_key=True)
        .column("role", "text", weight=1.0)
        .done()
        .relation("GENRE", concept="genre", weight=1.5)
        .column("mid", "integer", primary_key=True)
        .column("genre", "text", heading=True, primary_key=True)
        .done()
        .foreign_key("DIRECTED", ["mid"], "MOVIES", ["id"], verb="directed")
        .foreign_key("DIRECTED", ["did"], "DIRECTOR", ["id"], verb="directed by")
        .foreign_key("CAST", ["mid"], "MOVIES", ["id"], verb="features")
        .foreign_key("CAST", ["aid"], "ACTOR", ["id"], verb="plays in")
        .foreign_key("GENRE", ["mid"], "MOVIES", ["id"], verb="belongs to")
        .build(require_primary_keys=True)
    )


#: Seed rows.  Ids below 100 are the tuples the paper's examples rely on.
_SEED: Dict[str, List[dict]] = {
    "MOVIES": [
        {"id": 1, "title": "Match Point", "year": 2005},
        {"id": 2, "title": "Melinda and Melinda", "year": 2004},
        {"id": 3, "title": "Anything Else", "year": 2003},
        {"id": 4, "title": "Troy", "year": 2004},
        {"id": 5, "title": "Seven", "year": 1995},
        {"id": 6, "title": "Star Battles", "year": 1977},
        {"id": 7, "title": "Star Battles", "year": 1997},
        {"id": 8, "title": "The Galactic Menace", "year": 1999},
        {"id": 10, "title": "Ocean Heist", "year": 2001},
    ],
    "DIRECTOR": [
        {
            "id": 1,
            "name": "Woody Allen",
            "bdate": datetime.date(1935, 12, 1),
            "blocation": "Brooklyn, New York, USA",
        },
        {
            "id": 2,
            "name": "G. Loucas",
            "bdate": datetime.date(1944, 5, 14),
            "blocation": "Modesto, California, USA",
        },
        {
            "id": 3,
            "name": "D. Fincher",
            "bdate": datetime.date(1962, 8, 28),
            "blocation": "Denver, Colorado, USA",
        },
        {
            "id": 4,
            "name": "Sofia Ferrara",
            "bdate": datetime.date(1971, 5, 14),
            "blocation": "Rome, Italy",
        },
    ],
    "DIRECTED": [
        {"mid": 1, "did": 1},
        {"mid": 2, "did": 1},
        {"mid": 3, "did": 1},
        {"mid": 6, "did": 2},
        {"mid": 7, "did": 2},
        {"mid": 8, "did": 2},
        {"mid": 5, "did": 3},
        {"mid": 4, "did": 4},
        {"mid": 10, "did": 4},
    ],
    "ACTOR": [
        {"id": 1, "name": "Brad Pitt"},
        {"id": 2, "name": "Scarlett Johansson"},
        {"id": 3, "name": "Jonathan Rhys Meyers"},
        {"id": 4, "name": "Eric Bana"},
        {"id": 5, "name": "Morgan Freeman"},
        {"id": 6, "name": "Mark Hamill"},
        {"id": 7, "name": "Christina Ricci"},
        {"id": 8, "name": "Nikos Papadopoulos"},
    ],
    "CAST": [
        {"mid": 4, "aid": 1, "role": "Achilles"},
        {"mid": 5, "aid": 1, "role": "Detective Mills"},
        {"mid": 10, "aid": 1, "role": "Rusty"},
        {"mid": 1, "aid": 2, "role": "Nola Rice"},
        {"mid": 1, "aid": 3, "role": "Chris Wilton"},
        {"mid": 4, "aid": 4, "role": "Hector"},
        {"mid": 5, "aid": 5, "role": "Detective Somerset"},
        {"mid": 6, "aid": 6, "role": "Luke"},
        {"mid": 7, "aid": 6, "role": "Luke"},
        {"mid": 3, "aid": 7, "role": "Amanda"},
        {"mid": 10, "aid": 8, "role": "Nikos"},
        # A movie whose title equals one of its roles (exercises query Q4).
        {"mid": 2, "aid": 7, "role": "Melinda and Melinda"},
    ],
    "GENRE": [
        {"mid": 1, "genre": "drama"},
        {"mid": 1, "genre": "romance"},
        {"mid": 2, "genre": "comedy"},
        {"mid": 2, "genre": "drama"},
        {"mid": 3, "genre": "comedy"},
        {"mid": 4, "genre": "action"},
        {"mid": 5, "genre": "thriller"},
        {"mid": 6, "genre": "action"},
        {"mid": 7, "genre": "action"},
        {"mid": 8, "genre": "action"},
        {"mid": 10, "genre": "action"},
        {"mid": 10, "genre": "comedy"},
        {"mid": 10, "genre": "drama"},
        {"mid": 10, "genre": "romance"},
        {"mid": 10, "genre": "thriller"},
    ],
}

ALL_GENRES = sorted({row["genre"] for row in _SEED["GENRE"]})


def movie_database(seed_data: bool = True) -> Database:
    """A :class:`Database` over the Figure 1 schema.

    With ``seed_data`` (default) the paper's example tuples are loaded;
    otherwise the database is empty (useful for empty-answer explanation
    examples and for the scalable generator).
    """
    database = Database(movie_schema())
    if seed_data:
        database.load(_SEED)
    return database


# ---------------------------------------------------------------------------
# The paper's queries Q1-Q9 (Section 3.3), verbatim modulo whitespace.
# ---------------------------------------------------------------------------

PAPER_QUERIES: Dict[str, str] = {
    # Q1 — path query (Figure 3)
    "Q1": """
        select m.title
        from MOVIES m, CAST c, ACTOR a
        where m.id = c.mid and c.aid = a.id
          and a.name = 'Brad Pitt'
    """,
    # Q2 — subgraph query (Figure 4)
    "Q2": """
        select a.name, m.title
        from MOVIES m, CAST c, ACTOR a, DIRECTED r, DIRECTOR d, GENRE g
        where m.id = c.mid and c.aid = a.id
          and m.id = r.mid and r.did = d.id
          and m.id = g.mid and d.name = 'G. Loucas'
          and g.genre = 'action'
    """,
    # Q3 — multi-instance graph query (Figure 5)
    "Q3": """
        select a1.name, a2.name
        from MOVIES m, CAST c1, ACTOR a1, CAST c2, ACTOR a2
        where m.id = c1.mid and c1.aid = a1.id
          and m.id = c2.mid and c2.aid = a2.id
          and a1.id > a2.id
    """,
    # Q4 — cyclic graph query (Figure 6)
    "Q4": """
        select m.title from MOVIES m, CAST c
        where m.id = c.mid and c.role = m.title
    """,
    # Q5 — nested query with a flat equivalent
    "Q5": """
        select m.title from MOVIES m
        where id in (
            select c.mid from CAST c
            where c.aid in (
                select a.id from ACTOR a
                where a.name = 'Brad Pitt'))
    """,
    # Q6 — nested query without a flat equivalent (relational division).
    # The paper's listing has two typos (``a.title``/``a2.mid`` and an
    # unused alias ``G1``); the intent — movies that have all genres — is
    # what we encode here.
    "Q6": """
        select m.title from MOVIES m
        where not exists (
            select * from GENRE g1
            where not exists (
                select * from GENRE g2
                where g2.mid = m.id and g2.genre = g1.genre))
    """,
    # Q7 — aggregate query (Figure 7)
    "Q7": """
        select m.id, m.title, count(*) from MOVIES m, CAST c
        where m.id = c.mid
        group by m.id, m.title
        having 1 < (select count(*)
                    from GENRE g
                    where g.mid = m.id)
    """,
    # Q8 — "impossible": count(distinct year) = 1 means "all in the same year"
    "Q8": """
        select a.id, a.name
        from MOVIES m, CAST c, ACTOR a
        where m.id = c.mid and c.aid = a.id
        group by a.id, a.name
        having count(distinct m.year) = 1
    """,
    # Q9 — "impossible": <= all means "earliest"
    "Q9": """
        select a.name
        from MOVIES m, CAST c, ACTOR a
        where m.id = c.mid and c.aid = a.id
          and m.year <= all (
              select m1.year
              from MOVIES m1, MOVIES m2
              where m1.title = m.title and m2.title = m.title
                and m1.id <> m2.id)
    """,
}

#: The paper's target narratives for each query (Section 3.3).
PAPER_NARRATIVES: Dict[str, str] = {
    "Q1": "Find the titles of movies where the actor Brad Pitt plays",
    "Q1_concise": "Find movies where Brad Pitt plays",
    "Q2": "Find the actors and titles of action movies directed by G. Loucas",
    "Q3": "Find pairs of actors who have played in the same movie",
    "Q4": "Find movies whose title is one of their roles",
    "Q5": "Find movies where Brad Pitt plays",
    "Q6": "Find movies that have all genres",
    "Q7": "Find the number of actors in movies of more than one genre",
    "Q8": "Find actors whose movies are all in the same year",
    "Q9": "Find the actors who have played in the earliest versions of movies that have been repeated",
}
