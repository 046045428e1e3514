"""Tests for the text metrics the benchmarks report."""

import pytest

from repro.datasets import PAPER_QUERIES, movie_schema
from repro.evaluation import (
    TextMetrics,
    compression_ratio,
    coverage,
    query_coverage,
    query_elements,
    redundancy_ratio,
    tokens,
)


class TestMetrics:
    def test_tokens(self):
        assert tokens("Find movies, where Brad Pitt plays!") == [
            "find", "movies", "where", "brad", "pitt", "plays",
        ]

    def test_redundancy_ratio(self):
        assert redundancy_ratio("a b c d") == 0.0
        assert redundancy_ratio("a a a a") == pytest.approx(0.75)
        assert redundancy_ratio("") == 0.0

    def test_compression_ratio(self):
        assert compression_ratio("one two", "one two three four") == pytest.approx(0.5)
        assert compression_ratio("x", "") == 1.0

    def test_text_metrics(self):
        metrics = TextMetrics.of("One two three. Four five.")
        assert metrics.words == 5 and metrics.sentences == 2

    def test_query_elements_include_constants_and_concepts(self):
        elements = query_elements(movie_schema(), PAPER_QUERIES["Q1"])
        assert "Brad Pitt" in elements
        assert "movie" in elements and "actor" in elements
        assert "cast" not in elements  # bridge relations are skipped

    def test_coverage(self):
        assert coverage("find movies where brad pitt plays", ["movie", "Brad Pitt"]) == 1.0
        assert coverage("nothing relevant", ["Brad Pitt"]) == 0.0
        assert coverage("anything", []) == 1.0

    def test_query_coverage_of_paper_narrative(self):
        schema = movie_schema()
        value = query_coverage(
            schema, PAPER_QUERIES["Q1"], "Find the titles of movies where the actor Brad Pitt plays"
        )
        assert value == 1.0

    def test_query_coverage_penalises_missing_constant(self):
        schema = movie_schema()
        value = query_coverage(schema, PAPER_QUERIES["Q1"], "Find some movies")
        assert value < 1.0

