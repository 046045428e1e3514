"""Query workload generator for the taxonomy and performance benchmarks.

Section 3.3 of the paper categorises queries by how hard they are to
translate (path, subgraph, graph, non-graph, impossible).  The taxonomy
benchmark needs many queries per category; this module synthesises them
deterministically over the movie schema.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.datasets.movies import PAPER_QUERIES


@dataclass(frozen=True)
class WorkloadQuery:
    """A generated query together with its expected difficulty category."""

    name: str
    sql: str
    expected_category: str


_ACTOR_NAMES = ["Brad Pitt", "Scarlett Johansson", "Mark Hamill", "Morgan Freeman"]
_DIRECTOR_NAMES = ["Woody Allen", "G. Loucas", "D. Fincher", "Sofia Ferrara"]
_GENRES = ["action", "comedy", "drama", "romance", "thriller"]
_YEARS = [1977, 1995, 2003, 2004, 2005]


def paper_workload() -> List[WorkloadQuery]:
    """The paper's own Q1-Q9 with their section 3.3 categories."""
    categories = {
        "Q1": "path",
        "Q2": "subgraph",
        "Q3": "graph",
        "Q4": "graph",
        "Q5": "nested",
        "Q6": "nested",
        "Q7": "aggregate",
        "Q8": "impossible",
        "Q9": "impossible",
    }
    return [
        WorkloadQuery(name=name, sql=sql, expected_category=categories[name])
        for name, sql in PAPER_QUERIES.items()
    ]


def generate_workload(queries_per_category: int = 10, seed: int = 42) -> List[WorkloadQuery]:
    """Generate a mixed workload over the movie schema.

    Each category from Section 3.3 gets ``queries_per_category`` members;
    generation is deterministic for a given ``seed``.
    """
    rng = random.Random(seed)
    workload: List[WorkloadQuery] = []
    generators = {
        "path": _path_query,
        "subgraph": _subgraph_query,
        "graph": _graph_query,
        "nested": _nested_query,
        "aggregate": _aggregate_query,
    }
    for category, generator in generators.items():
        for index in range(queries_per_category):
            workload.append(
                WorkloadQuery(
                    name=f"{category}_{index}",
                    sql=generator(rng, index),
                    expected_category=category,
                )
            )
    return workload


# ---------------------------------------------------------------------------
# Per-category generators
# ---------------------------------------------------------------------------


def _path_query(rng: random.Random, index: int) -> str:
    actor = rng.choice(_ACTOR_NAMES)
    if index % 2 == 0:
        return (
            "select m.title from MOVIES m, CAST c, ACTOR a "
            "where m.id = c.mid and c.aid = a.id "
            f"and a.name = '{actor}'"
        )
    director = rng.choice(_DIRECTOR_NAMES)
    return (
        "select m.title from MOVIES m, DIRECTED r, DIRECTOR d "
        "where m.id = r.mid and r.did = d.id "
        f"and d.name = '{director}'"
    )


def _subgraph_query(rng: random.Random, index: int) -> str:
    director = rng.choice(_DIRECTOR_NAMES)
    genre = rng.choice(_GENRES)
    return (
        "select a.name, m.title "
        "from MOVIES m, CAST c, ACTOR a, DIRECTED r, DIRECTOR d, GENRE g "
        "where m.id = c.mid and c.aid = a.id "
        "and m.id = r.mid and r.did = d.id "
        "and m.id = g.mid "
        f"and d.name = '{director}' and g.genre = '{genre}'"
    )


def _graph_query(rng: random.Random, index: int) -> str:
    if index % 2 == 0:
        # Multi-instance: pairs of actors in the same movie.
        return (
            "select a1.name, a2.name "
            "from MOVIES m, CAST c1, ACTOR a1, CAST c2, ACTOR a2 "
            "where m.id = c1.mid and c1.aid = a1.id "
            "and m.id = c2.mid and c2.aid = a2.id "
            "and a1.id > a2.id"
        )
    # Cyclic: non-FK join between attributes of joined relations.
    return (
        "select m.title from MOVIES m, CAST c "
        "where m.id = c.mid and c.role = m.title"
    )


def _nested_query(rng: random.Random, index: int) -> str:
    actor = rng.choice(_ACTOR_NAMES)
    if index % 2 == 0:
        return (
            "select m.title from MOVIES m "
            "where m.id in (select c.mid from CAST c "
            "where c.aid in (select a.id from ACTOR a "
            f"where a.name = '{actor}'))"
        )
    genre = rng.choice(_GENRES)
    return (
        "select m.title from MOVIES m "
        "where not exists (select * from GENRE g "
        f"where g.mid = m.id and g.genre = '{genre}')"
    )


def _aggregate_query(rng: random.Random, index: int) -> str:
    year = rng.choice(_YEARS)
    if index % 2 == 0:
        return (
            "select m.id, m.title, count(*) from MOVIES m, CAST c "
            "where m.id = c.mid group by m.id, m.title "
            "having count(*) > 1"
        )
    return (
        "select d.name, count(*) from DIRECTOR d, DIRECTED r, MOVIES m "
        "where d.id = r.did and r.mid = m.id "
        f"and m.year >= {year} "
        "group by d.name"
    )
