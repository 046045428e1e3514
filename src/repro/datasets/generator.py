"""Deterministic scalable data generator for the movie schema.

The paper observes that "translation of a database with a very large
number of relations, attributes or tuples, will most likely lead to less
meaningful or concise answers" and motivates ranking-bounded narration.
The scaling benchmarks therefore need movie databases of controllable
size; this generator produces them deterministically (a seeded ``random``
instance — no wall-clock, no global state) so benchmark runs are
reproducible.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass
from typing import Dict, List

from repro.datasets.movies import movie_database
from repro.storage.database import Database

_FIRST_NAMES = [
    "Alex", "Maria", "John", "Sofia", "Nikos", "Elena", "Peter", "Anna",
    "George", "Irene", "Paul", "Dora", "Chris", "Katerina", "Mark", "Lydia",
]
_LAST_NAMES = [
    "Anderson", "Baker", "Carter", "Dimitriou", "Evans", "Fischer", "Garcia",
    "Hansen", "Ioannou", "Jensen", "Kim", "Lambert", "Miller", "Nolan",
    "Pappas", "Quinn", "Rossi", "Sato", "Turner", "Vasquez",
]
_TITLE_HEADS = [
    "Midnight", "Silent", "Golden", "Broken", "Electric", "Hidden", "Crimson",
    "Distant", "Forgotten", "Burning", "Frozen", "Endless", "Shattered",
]
_TITLE_TAILS = [
    "Harbor", "Letters", "Promise", "Empire", "Waltz", "Horizon", "Garden",
    "Signal", "Mirror", "Voyage", "Orchard", "Paradox", "Covenant",
]
_CITIES = [
    "Athens, Greece", "Palo Alto, California, USA", "Rome, Italy",
    "Paris, France", "Tokyo, Japan", "Berlin, Germany", "London, UK",
    "Brooklyn, New York, USA", "Madrid, Spain", "Toronto, Canada",
]
_GENRES = ["action", "comedy", "drama", "romance", "thriller", "documentary"]
_ROLES = [
    "the detective", "the captain", "the scientist", "the stranger",
    "the journalist", "the pilot", "the teacher", "the thief",
]


@dataclass(frozen=True)
class GeneratorConfig:
    """Size knobs for the synthetic movie database."""

    movies: int = 100
    directors: int = 20
    actors: int = 60
    cast_per_movie: int = 3
    genres_per_movie: int = 2
    seed: int = 2009  # the paper's publication year, for determinism


def generate_movie_records(config: GeneratorConfig) -> Dict[str, List[dict]]:
    """Generate record dictionaries for every table of the movie schema."""
    rng = random.Random(config.seed)

    directors = []
    for did in range(1, config.directors + 1):
        directors.append(
            {
                "id": 1000 + did,
                "name": _person_name(rng),
                "bdate": _birth_date(rng),
                "blocation": rng.choice(_CITIES),
            }
        )

    actors = []
    for aid in range(1, config.actors + 1):
        actors.append({"id": 1000 + aid, "name": _person_name(rng)})

    movies = []
    directed = []
    cast = []
    genres = []
    for mid in range(1, config.movies + 1):
        movie_id = 1000 + mid
        movies.append(
            {
                "id": movie_id,
                "title": _movie_title(rng, mid),
                "year": rng.randint(1950, 2008),
            }
        )
        directed.append({"mid": movie_id, "did": rng.choice(directors)["id"]})
        chosen_actors = rng.sample(actors, min(config.cast_per_movie, len(actors)))
        for actor in chosen_actors:
            cast.append(
                {"mid": movie_id, "aid": actor["id"], "role": rng.choice(_ROLES)}
            )
        chosen_genres = rng.sample(_GENRES, min(config.genres_per_movie, len(_GENRES)))
        for genre in chosen_genres:
            genres.append({"mid": movie_id, "genre": genre})

    return {
        "MOVIES": movies,
        "DIRECTOR": directors,
        "DIRECTED": directed,
        "ACTOR": actors,
        "CAST": cast,
        "GENRE": genres,
    }


def generate_movie_database(
    config: GeneratorConfig = GeneratorConfig(), include_paper_seed: bool = True
) -> Database:
    """A movie database of configurable size.

    With ``include_paper_seed`` the paper's example tuples (Woody Allen,
    Brad Pitt, ...) are present alongside the synthetic rows so that the
    paper's narratives remain reproducible at every scale.
    """
    database = movie_database(seed_data=include_paper_seed)
    database.load(generate_movie_records(config))
    return database


def bench_movie_database() -> Database:
    """The 200-movie generated database the performance suite shares.

    A module-level zero-argument factory so multi-process consumers (the
    shard tier's workers build their replicas by importing a factory
    path) and the benchmarks construct the identical database.
    """
    return generate_movie_database(
        GeneratorConfig(movies=200, directors=20, actors=50)
    )


def _person_name(rng: random.Random) -> str:
    return f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}"


def _movie_title(rng: random.Random, mid: int) -> str:
    return f"{rng.choice(_TITLE_HEADS)} {rng.choice(_TITLE_TAILS)} {mid}"


def _birth_date(rng: random.Random) -> datetime.date:
    year = rng.randint(1920, 1985)
    month = rng.randint(1, 12)
    day = rng.randint(1, 28)
    return datetime.date(year, month, day)
