"""Tests for the schema graph (Figure 1) and its traversal."""

import pytest

from repro.datasets import library_schema, movie_schema
from repro.graph import (
    PatternKind,
    SchemaGraph,
    build_schema_graph,
    dfs_traversal,
)


@pytest.fixture(scope="module")
def graph() -> SchemaGraph:
    return SchemaGraph(movie_schema())


class TestGraphStructure:
    def test_one_relation_node_per_relation(self, graph):
        assert len(graph.relation_nodes) == 6

    def test_one_projection_edge_per_attribute(self, graph):
        assert len(graph.projection_edges) == len(graph.attribute_nodes) == 16

    def test_one_join_edge_per_foreign_key(self, graph):
        assert len(graph.join_edges) == 5

    def test_build_schema_graph_is_the_documented_entry_point(self, graph):
        built = build_schema_graph(movie_schema())
        assert isinstance(built, SchemaGraph)
        assert [node.name for node in built.relation_nodes] == [
            node.name for node in graph.relation_nodes
        ]
        assert len(built.join_edges) == 5 and built.central_relation().name == "MOVIES"

    def test_neighbours(self, graph):
        assert set(graph.neighbours("MOVIES")) == {"DIRECTED", "CAST", "GENRE"}
        assert graph.neighbours("ACTOR") == ("CAST",)

    def test_degree(self, graph):
        assert graph.degree("MOVIES") == 3
        assert graph.degree("DIRECTOR") == 1

    def test_central_relation_is_movies(self, graph):
        assert graph.central_relation().name == "MOVIES"

    def test_shortest_path_via_bridge(self, graph):
        assert graph.shortest_path("DIRECTOR", "MOVIES") == ("DIRECTOR", "DIRECTED", "MOVIES")
        assert graph.shortest_path("ACTOR", "DIRECTOR") == (
            "ACTOR", "CAST", "MOVIES", "DIRECTED", "DIRECTOR",
        )

    def test_shortest_path_same_relation(self, graph):
        assert graph.shortest_path("MOVIES", "MOVIES") == ("MOVIES",)

    def test_shortest_path_disconnected(self):
        from repro.catalog import SchemaBuilder

        schema = (
            SchemaBuilder("s")
            .relation("A").column("id", "integer", primary_key=True).done()
            .relation("B").column("id", "integer", primary_key=True).done()
            .build()
        )
        assert SchemaGraph(schema).shortest_path("A", "B") == ()

    def test_to_dot_mentions_all_relations(self, graph):
        dot = graph.to_dot()
        for name in ("MOVIES", "DIRECTOR", "ACTOR", "CAST", "GENRE", "DIRECTED"):
            assert name in dot
        assert dot.startswith("digraph")

    def test_summary(self, graph):
        assert "6 relation" in graph.summary()


class TestTraversal:
    def test_default_start_is_central_relation(self, graph):
        traversal = dfs_traversal(graph)
        assert traversal.order[0] == "MOVIES"

    def test_covers_every_relation(self, graph):
        traversal = dfs_traversal(graph)
        assert set(traversal.order) == set(movie_schema().relation_names)

    def test_restricted_traversal(self, graph):
        traversal = dfs_traversal(graph, start="DIRECTOR", restrict_to=["DIRECTOR", "DIRECTED", "MOVIES"])
        assert set(traversal.order) == {"DIRECTOR", "DIRECTED", "MOVIES"}

    def test_parent_child_relationships(self, graph):
        traversal = dfs_traversal(graph, start="MOVIES")
        parents = {step.relation: step.parent for step in traversal.steps}
        assert parents["MOVIES"] is None
        assert parents["GENRE"] == "MOVIES"

    def test_split_pattern_detected_at_movies(self, graph):
        traversal = dfs_traversal(graph, start="MOVIES")
        split_centers = [p.center for p in traversal.patterns if p.kind is PatternKind.SPLIT]
        assert "MOVIES" in split_centers

    def test_unary_pattern_detected_on_chains(self, graph):
        traversal = dfs_traversal(graph, start="ACTOR", restrict_to=["ACTOR", "CAST", "MOVIES"])
        kinds = {p.kind for p in traversal.patterns}
        assert kinds == {PatternKind.UNARY}

    def test_disconnected_subset_gets_extra_roots(self, graph):
        traversal = dfs_traversal(graph, start="ACTOR", restrict_to=["ACTOR", "DIRECTOR"])
        assert set(traversal.order) == {"ACTOR", "DIRECTOR"}

    def test_library_schema_graph_builds(self):
        graph = SchemaGraph(library_schema())
        assert graph.central_relation().name in ("COLLECTION", "ITEM", "AUTHOR")
        assert dfs_traversal(graph).order
