"""Tests for the query-graph builder (Section 3.2, Figure 2)."""

import pytest

from repro.datasets import PAPER_QUERIES, movie_schema
from repro.errors import SqlValidationError
from repro.querygraph import QueryGraphBuilder, build_query_graph


@pytest.fixture(scope="module")
def schema():
    return movie_schema()


@pytest.fixture(scope="module")
def builder(schema):
    return QueryGraphBuilder(schema)


class TestClasses:
    def test_one_class_per_tuple_variable(self, schema):
        graph = build_query_graph(schema, PAPER_QUERIES["Q3"])
        assert set(graph.bindings) == {"m", "c1", "a1", "c2", "a2"}
        assert graph.has_multiple_instances()

    def test_classes_of_relation_lists_each_tuple_variable(self, schema):
        graph = build_query_graph(schema, PAPER_QUERIES["Q3"])
        assert [qc.binding for qc in graph.classes_of_relation("cast")] == ["c1", "c2"]
        assert [qc.binding for qc in graph.classes_of_relation("MOVIES")] == ["m"]
        assert graph.classes_of_relation("GENRE") == []

    def test_select_entries_attached_to_right_class(self, schema):
        graph = build_query_graph(schema, PAPER_QUERIES["Q1"])
        assert [e.attribute for e in graph.query_class("m").select_entries] == ["title"]
        assert graph.query_class("a").select_entries == []

    def test_where_constraints_attached_locally(self, schema):
        graph = build_query_graph(schema, PAPER_QUERIES["Q1"])
        constraints = graph.query_class("a").where_constraints
        assert len(constraints) == 1
        assert "Brad Pitt" in constraints[0].text

    def test_unqualified_column_resolved_to_owner(self, schema):
        graph = build_query_graph(
            schema, "select title from MOVIES m where year > 2000"
        )
        assert graph.query_class("m").select_entries[0].attribute == "title"
        assert len(graph.query_class("m").where_constraints) == 1

    def test_star_expands_per_class(self, schema):
        graph = build_query_graph(schema, "select * from ACTOR a")
        assert [e.attribute for e in graph.query_class("a").select_entries] == ["id", "name"]

    def test_select_entry_render(self, schema):
        graph = build_query_graph(schema, "select m.title as t from MOVIES m")
        assert graph.query_class("m").select_entries[0].render() == "m.MOVIES.title: t"

    def test_class_render_contains_figure2_compartments(self, schema):
        graph = build_query_graph(schema, PAPER_QUERIES["Q1"])
        rendering = graph.query_class("a").render()
        for tag in ("<<FROM>>", "<<alias>>", "<<SELECT>>", "<<WHERE>>", "<<HAVING>>"):
            assert tag in rendering

    def test_group_by_and_order_by_notes(self, schema):
        graph = build_query_graph(
            schema,
            "select m.year, count(*) from MOVIES m group by m.year order by m.year desc",
        )
        assert graph.query_class("m").group_by == ["m.year"]
        assert graph.query_class("m").order_by == ["m.year DESC"]

    def test_invalid_query_raises(self, schema):
        with pytest.raises(SqlValidationError):
            build_query_graph(schema, "select x.title from MOVIES m")


class TestJoinEdges:
    def test_fk_joins_flagged(self, schema):
        graph = build_query_graph(schema, PAPER_QUERIES["Q1"])
        assert len(graph.join_edges) == 2
        assert all(edge.is_foreign_key for edge in graph.join_edges)

    def test_non_fk_join_flagged(self, schema):
        graph = build_query_graph(schema, PAPER_QUERIES["Q4"])
        non_fk = graph.non_fk_join_edges()
        assert len(non_fk) == 1
        assert "role" in non_fk[0].text

    def test_inequality_edge_is_not_equality(self, schema):
        graph = build_query_graph(schema, PAPER_QUERIES["Q3"])
        inequality = [e for e in graph.join_edges if not e.is_equality]
        assert len(inequality) == 1

    def test_cycle_detection(self, schema):
        assert build_query_graph(schema, PAPER_QUERIES["Q4"]).has_cycle()
        assert not build_query_graph(schema, PAPER_QUERIES["Q1"]).has_cycle()

    def test_connectivity(self, schema):
        assert build_query_graph(schema, PAPER_QUERIES["Q2"]).is_connected()
        cross = build_query_graph(schema, "select d.name, g.genre from DIRECTOR d, GENRE g")
        assert not cross.is_connected()

    def test_degree(self, schema):
        graph = build_query_graph(schema, PAPER_QUERIES["Q2"])
        assert graph.degree("m") == 3


class TestNestingEdges:
    def test_q5_nested_chain(self, schema):
        graph = build_query_graph(schema, PAPER_QUERIES["Q5"])
        assert len(graph.nesting_edges) == 1
        edge = graph.nesting_edges[0]
        assert edge.connector == "IN"
        assert len(edge.subgraph.nesting_edges) == 1

    def test_q6_not_exists_connector(self, schema):
        graph = build_query_graph(schema, PAPER_QUERIES["Q6"])
        assert graph.nesting_edges[0].connector == "NOT EXISTS"

    def test_q7_scalar_connector_in_having(self, schema):
        graph = build_query_graph(schema, PAPER_QUERIES["Q7"])
        assert graph.nesting_edges[0].connector.startswith("SCALAR")
        assert graph.nesting_edges[0].in_having

    def test_q9_quantified_connector(self, schema):
        graph = build_query_graph(schema, PAPER_QUERIES["Q9"])
        assert graph.nesting_edges[0].connector == "<= ALL"
        assert graph.nesting_edges[0].outer_binding == "m"

    def test_aggregates_recorded(self, schema):
        graph = build_query_graph(schema, PAPER_QUERIES["Q7"])
        assert graph.has_aggregates()
        assert "count(*)" in graph.global_aggregates

    def test_aggregate_with_argument_attached_to_class(self, schema):
        graph = build_query_graph(
            schema, "select count(m.id) from MOVIES m group by m.year"
        )
        assert graph.query_class("m").aggregate_entries == ["count(m.id)"]


class TestRendering:
    def test_summary(self, schema):
        summary = build_query_graph(schema, PAPER_QUERIES["Q3"]).summary()
        assert "multi-instance=True" in summary
