"""Tests for the query-difficulty taxonomy (Section 3.3)."""

import pytest

from repro.datasets import (
    MANAGER_QUERY,
    PAPER_QUERIES,
    employee_schema,
    generate_workload,
    movie_schema,
    paper_workload,
)
from repro.querygraph import QueryCategory, classify_query

EXPECTED = {
    "Q1": QueryCategory.PATH,
    "Q2": QueryCategory.SUBGRAPH,
    "Q3": QueryCategory.GRAPH,
    "Q4": QueryCategory.GRAPH,
    "Q5": QueryCategory.NESTED,
    "Q6": QueryCategory.NESTED,
    "Q7": QueryCategory.AGGREGATE,
    "Q8": QueryCategory.IMPOSSIBLE,
    "Q9": QueryCategory.IMPOSSIBLE,
}


@pytest.fixture(scope="module")
def schema():
    return movie_schema()


class TestPaperTaxonomy:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_paper_query_categories(self, schema, name):
        classification = classify_query(schema, PAPER_QUERIES[name])
        assert classification.category is EXPECTED[name]
        assert classification.reasons

    def test_manager_query_is_graph(self):
        classification = classify_query(employee_schema(), MANAGER_QUERY)
        assert classification.category is QueryCategory.GRAPH

    def test_difficulty_is_monotone_in_paper_order(self):
        order = [
            QueryCategory.PATH,
            QueryCategory.SUBGRAPH,
            QueryCategory.GRAPH,
            QueryCategory.NESTED,
            QueryCategory.AGGREGATE,
            QueryCategory.IMPOSSIBLE,
        ]
        difficulties = [c.difficulty for c in order]
        assert difficulties == sorted(difficulties)
        assert difficulties[0] == 1 and difficulties[-1] == 6


class TestMoreClassifications:
    def test_single_relation_query_is_path(self, schema):
        c = classify_query(schema, "select title from MOVIES where year > 2000")
        assert c.category is QueryCategory.PATH

    def test_disconnected_join_is_graph(self, schema):
        c = classify_query(schema, "select d.name, g.genre from DIRECTOR d, GENRE g")
        assert c.category is QueryCategory.GRAPH

    def test_plain_group_by_is_aggregate(self, schema):
        c = classify_query(
            schema, "select g.genre, count(*) from GENRE g group by g.genre"
        )
        assert c.category is QueryCategory.AGGREGATE

    def test_any_quantifier_is_nested_not_impossible(self, schema):
        c = classify_query(
            schema,
            "select m.title from MOVIES m where m.id = any (select g.mid from GENRE g)",
        )
        assert c.category is QueryCategory.NESTED

    def test_count_distinct_greater_than_one_not_impossible(self, schema):
        c = classify_query(
            schema,
            "select c.aid from CAST c, MOVIES m where m.id = c.mid"
            " group by c.aid having count(distinct m.year) > 1",
        )
        assert c.category is QueryCategory.AGGREGATE

    def test_exists_subquery_is_nested(self, schema):
        c = classify_query(
            schema,
            "select m.title from MOVIES m where exists (select * from GENRE g where g.mid = m.id)",
        )
        assert c.category is QueryCategory.NESTED


class TestWorkloadClassification:
    def test_paper_workload_matches_expected_families(self, schema):
        for query in paper_workload():
            classification = classify_query(schema, query.sql)
            assert classification.category.value == query.expected_category

    def test_generated_workload_classifies_as_labelled(self, schema):
        for query in generate_workload(queries_per_category=3, seed=7):
            classification = classify_query(schema, query.sql)
            assert classification.category.value == query.expected_category, query.name

    def test_generated_workload_is_deterministic(self):
        first = [q.sql for q in generate_workload(queries_per_category=4, seed=11)]
        second = [q.sql for q in generate_workload(queries_per_category=4, seed=11)]
        assert first == second
