"""Differential suite for the maintained content-side structures.

The :class:`repro.content.ranking.ConnectivityTracker` (top-k ranking
maintained on DML, like the hash indexes) must order and score tuples
exactly like the score-every-row oracle, across schemas and through
arbitrary insert/update/delete sequences.
"""

import random

import pytest

from repro.content.personalization import UserProfile
from repro.content.ranking import ConnectivityTracker, rank_tuples, tracker_for
from repro.datasets import (
    GeneratorConfig,
    employee_database,
    generate_movie_database,
    library_database,
    movie_database,
)
from repro.errors import ForeignKeyViolationError, PrimaryKeyViolationError


def assert_ranking_matches_oracle(database, label=""):
    for relation in database.schema.relations:
        maintained = rank_tuples(database, relation.name)
        oracle = rank_tuples(database, relation.name, maintained=False)
        assert [(r.row.as_dict(), r.score) for r in maintained] == [
            (r.row.as_dict(), r.score) for r in oracle
        ], (label, relation.name)


class TestMaintainedRanking:
    def test_matches_oracle_on_shipped_datasets(self):
        for database in (movie_database(), employee_database(), library_database()):
            assert_ranking_matches_oracle(database, database.schema.name)

    def test_matches_oracle_on_generated_database(self):
        database = generate_movie_database(
            GeneratorConfig(movies=80, directors=8, actors=20)
        )
        assert_ranking_matches_oracle(database, "generated")

    def test_limit_is_a_prefix_of_the_full_order(self):
        database = movie_database()
        full = rank_tuples(database, "MOVIES")
        top = rank_tuples(database, "MOVIES", limit=3)
        assert [r.row.as_dict() for r in top] == [r.row.as_dict() for r in full[:3]]

    def test_maintained_through_random_dml(self):
        database = movie_database()
        tracker_for(database)  # build before mutating, so updates are incremental
        rng = random.Random(7)
        next_id = 1000
        for step in range(80):
            action = rng.random()
            try:
                if action < 0.4:
                    database.insert(
                        "MOVIES",
                        {"id": next_id, "title": f"M{next_id}", "year": 1980 + next_id % 40},
                    )
                    database.insert("GENRE", {"mid": next_id, "genre": "drama"})
                    database.insert(
                        "CAST", {"mid": next_id, "aid": 1 + next_id % 8, "role": "R"}
                    )
                    next_id += 1
                elif action < 0.6:
                    table = database.table("CAST")
                    rowids = [rowid for rowid, _row in table.rows_with_ids()]
                    if rowids:
                        table.delete_rows([rng.choice(rowids)])
                elif action < 0.8:
                    table = database.table("MOVIES")
                    rowids = [rowid for rowid, _row in table.rows_with_ids()]
                    if rowids:
                        table.update_rows([rng.choice(rowids)], {"year": 1950 + step})
                else:
                    table = database.table("CAST")
                    rowids = [rowid for rowid, _row in table.rows_with_ids()]
                    if rowids:
                        table.update_rows([rng.choice(rowids)], {"aid": 1 + step % 8})
            except (PrimaryKeyViolationError, ForeignKeyViolationError):
                pass
            if step % 16 == 0:
                assert_ranking_matches_oracle(database, f"step {step}")
        assert_ranking_matches_oracle(database, "final")

    def test_truncate_rebuilds(self):
        database = movie_database()
        tracker = tracker_for(database)
        database.table("CAST").truncate()
        assert_ranking_matches_oracle(database, "after truncate")
        assert tracker.ranked_rowids("CAST") == []

    def test_fk_update_moves_connectivity(self):
        database = movie_database()
        tracker = tracker_for(database)
        cast = database.table("CAST")
        movies = database.table("MOVIES")
        rowid, row = next(cast.rows_with_ids())
        old_mid = row.get("mid")
        old_parent_rowid = next(
            rid for rid, r in movies.rows_with_ids() if r.get("id") == old_mid
        )
        target_mid = next(
            r.get("id") for r in movies.rows() if r.get("id") != old_mid
        )
        target_rowid = next(
            rid for rid, r in movies.rows_with_ids() if r.get("id") == target_mid
        )
        before_old = tracker.connectivity("MOVIES", old_parent_rowid)
        before_new = tracker.connectivity("MOVIES", target_rowid)
        cast.update_rows([rowid], {"mid": target_mid})
        assert tracker.connectivity("MOVIES", old_parent_rowid) == before_old - 1
        assert tracker.connectivity("MOVIES", target_rowid) == before_new + 1
        assert_ranking_matches_oracle(database, "after fk move")

    def test_tracker_is_shared_per_database(self):
        database = movie_database()
        assert tracker_for(database) is tracker_for(database)

    def test_rank_tuples_is_order_only_dependent_on_connectivity(self):
        database = movie_database()
        heavy = UserProfile(name="heavy", relation_weights={"MOVIES": 99.0})
        default_order = [r.row.as_dict() for r in rank_tuples(database, "MOVIES")]
        heavy_order = [
            r.row.as_dict() for r in rank_tuples(database, "MOVIES", profile=heavy)
        ]
        assert default_order == heavy_order
