"""Tests for content-translation support modules: navigation, ranking, summaries."""

import pytest

from repro.content import (
    UserProfile,
    coverage_plan,
    describe_histogram,
    describe_schema,
    describe_statistics,
    find_by_heading,
    rank_relations,
    rank_tuples,
    related_rows,
    score_tuple,
    tuple_connectivity,
)
from repro.datasets import movie_database
from repro.graph import SchemaGraph


@pytest.fixture(scope="module")
def database():
    return movie_database()


class TestNavigation:
    def test_find_by_heading(self, database):
        row = find_by_heading(database, "DIRECTOR", "Woody Allen")
        assert row is not None and row["id"] == 1
        assert find_by_heading(database, "DIRECTOR", "Nobody") is None

    def test_related_rows_across_bridge(self, database):
        graph = SchemaGraph(database.schema)
        woody = find_by_heading(database, "DIRECTOR", "Woody Allen")
        path = graph.shortest_path("DIRECTOR", "MOVIES")
        movies = related_rows(database, path, woody)
        assert [m["title"] for m in movies] == [
            "Match Point", "Melinda and Melinda", "Anything Else",
        ]

    def test_related_rows_deduplicates(self, database):
        graph = SchemaGraph(database.schema)
        troy = find_by_heading(database, "MOVIES", "Troy")
        path = graph.shortest_path("MOVIES", "ACTOR")
        actors = related_rows(database, path, troy)
        assert len(actors) == len({a["id"] for a in actors}) == 2

    def test_related_rows_trivial_path(self, database):
        woody = find_by_heading(database, "DIRECTOR", "Woody Allen")
        assert related_rows(database, ["DIRECTOR"], woody) == [woody]

    def test_related_rows_unconnected_path(self, database):
        woody = find_by_heading(database, "DIRECTOR", "Woody Allen")
        assert related_rows(database, ["DIRECTOR", "ACTOR"], woody) == []


class TestRanking:
    def test_connectivity_counts_references(self, database):
        relation = database.schema.relation("MOVIES")
        ocean = find_by_heading(database, "MOVIES", "Ocean Heist")
        troy = find_by_heading(database, "MOVIES", "Troy")
        assert tuple_connectivity(database, relation, ocean) > tuple_connectivity(
            database, relation, troy
        )

    def test_score_includes_profile_weight(self, database):
        relation = database.schema.relation("MOVIES")
        row = find_by_heading(database, "MOVIES", "Troy")
        light = UserProfile(relation_weights={"MOVIES": 0.1})
        heavy = UserProfile(relation_weights={"MOVIES": 10.0})
        assert score_tuple(database, relation, row, heavy) > score_tuple(
            database, relation, row, light
        )

    def test_rank_tuples_orders_by_score(self, database):
        ranked = rank_tuples(database, "MOVIES", limit=3)
        assert ranked[0].row["title"] == "Ocean Heist"
        assert len(ranked) == 3

    def test_rank_relations_excludes_bridges(self, database):
        names = [r.name for r in rank_relations(database)]
        assert "CAST" not in names and "DIRECTED" not in names
        assert names[0] == "MOVIES"

    def test_rank_relations_respects_profile_exclusions(self, database):
        profile = UserProfile(excluded_relations={"GENRE"})
        names = [r.name for r in rank_relations(database, profile)]
        assert "GENRE" not in names

    def test_coverage_plan_limits(self, database):
        plan = coverage_plan(database, max_relations=2, max_tuples_per_relation=1)
        assert len(plan) == 2
        assert all(len(tuples) == 1 for tuples in plan.values())


class TestSummaries:
    def test_schema_description_mentions_entities_and_links(self, database):
        text = describe_schema(database.schema)
        assert "movies" in text and "directors" in text
        assert "connected to" in text

    def test_statistics(self, database):
        text = describe_statistics(database)
        assert "nine movies" in text or "9 movies" in text

    def test_histogram(self):
        years = [1977, 1995, 1997, 1999, 2001, 2003, 2004, 2004, 2005]
        text = describe_histogram(years, "release year")
        assert "range from 1977 to 2005" in text
        assert "Most of them" in text

    def test_histogram_degenerate_cases(self):
        assert "no release year values" in describe_histogram([], "release year")
        assert "equal 2000" in describe_histogram([2000, 2000], "release year")
