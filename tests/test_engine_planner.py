"""Tests for predicate classification and logical planning."""

import pytest

from repro.datasets import PAPER_QUERIES, movie_database
from repro.engine import Executor
from repro.engine.plan import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    JoinNode,
    LimitNode,
    Planner,
    ProjectNode,
    ScanNode,
    SortNode,
    classify_predicates,
    plan_query,
)
from repro.errors import PlanningError
from repro.sql import ast
from repro.sql.parser import parse_select


SCHEMA = movie_database().schema


def plan(sql: str):
    return plan_query(parse_select(sql), SCHEMA)


def node_types(plan_obj):
    found = []

    def walk(node):
        found.append(type(node))
        for child in node.children():
            walk(child)

    walk(plan_obj.root)
    return found


class TestClassifyPredicates:
    def test_local_join_and_residual(self):
        statement = parse_select(
            "select * from MOVIES m, CAST c where m.id = c.mid and m.year > 2000"
            " and m.id in (select mid from GENRE)"
        )
        classified = classify_predicates(statement.where, ["m", "c"])
        assert len(classified.joins) == 1
        assert len(classified.local["m"]) == 1
        assert len(classified.residual) == 1

    def test_unqualified_column_goes_residual(self):
        statement = parse_select("select * from MOVIES m where year > 2000")
        classified = classify_predicates(statement.where, ["m"])
        assert classified.residual and not classified.local["m"]

    def test_cross_binding_inequality_is_residual(self):
        statement = parse_select("select * from CAST c1, CAST c2 where c1.aid > c2.aid")
        classified = classify_predicates(statement.where, ["c1", "c2"])
        assert classified.residual and not classified.joins

    def test_empty_where(self):
        classified = classify_predicates(None, ["m"])
        assert not classified.joins and not classified.residual


class TestPlanShapes:
    def test_simple_scan_project(self):
        types = node_types(plan("select title from MOVIES"))
        assert types == [ProjectNode, ScanNode]

    def test_filter_pushed_below_join(self):
        logical = plan(
            "select m.title from MOVIES m, CAST c where m.id = c.mid and m.year > 2000"
        )
        explain = logical.explain()
        assert explain.index("Filter(m.year > 2000)") > explain.index("HashJoin")

    def test_join_conditions_only_when_bindings_available(self):
        logical = plan(PAPER_QUERIES["Q2"])
        lines = logical.explain().splitlines()
        first_join = next(line for line in reversed(lines) if "Join" in line)
        # The innermost (deepest) join must not reference relations joined later.
        assert "d.id" not in first_join or "r.did" in first_join

    def test_aggregate_node_present_for_group_by(self):
        types = node_types(plan(PAPER_QUERIES["Q7"]))
        assert AggregateNode in types

    def test_distinct_sort_limit_nodes(self):
        types = node_types(
            plan("select distinct title from MOVIES order by title limit 3")
        )
        assert DistinctNode in types and SortNode in types and LimitNode in types

    def test_cross_join_when_no_condition(self):
        logical = plan("select * from MOVIES m, ACTOR a")
        assert "CrossJoin" in logical.explain()

    def test_duplicate_aliases_rejected(self):
        statement = parse_select("select * from MOVIES m, CAST c")
        bad = ast.SelectStatement(
            select_items=statement.select_items,
            from_tables=(
                ast.TableRef("MOVIES", "m"),
                ast.TableRef("CAST", "m"),
            ),
        )
        with pytest.raises(PlanningError):
            Planner(SCHEMA).plan(bad)

    def test_from_less_select(self):
        logical = plan("select 1 + 1")
        assert isinstance(logical.root, ProjectNode)

    def test_having_without_group_by_becomes_filter(self):
        types = node_types(plan("select title from MOVIES having title = 'Troy'"))
        assert FilterNode in types and AggregateNode not in types

    def test_self_join_plan_has_both_scans(self):
        logical = plan(PAPER_QUERIES["Q3"])
        scans = [n for n in node_types(logical) if n is ScanNode]
        assert len(scans) == 5

    def test_explain_is_indented_tree(self):
        text = plan(PAPER_QUERIES["Q1"]).explain()
        assert text.splitlines()[0].startswith("Project")
        assert any(line.startswith("  ") for line in text.splitlines())

    @pytest.mark.parametrize(
        "sql, lines",
        [
            (
                "select distinct m.year from MOVIES m order by m.year desc limit 3 offset 1",
                ["Limit(limit 3, offset 1)", "  Distinct", "    Project(m.year)",
                 "      Sort(m.year DESC)", "        Scan(MOVIES AS m)"],
            ),
            (
                "select m.title from MOVIES m limit 2",
                ["Limit(limit 2)", "  Project(m.title)", "    Scan(MOVIES AS m)"],
            ),
            (
                "select m.title, m.year from MOVIES m order by m.year desc, m.title",
                ["Project(m.title, m.year)", "  Sort(m.year DESC, m.title)",
                 "    Scan(MOVIES AS m)"],
            ),
        ],
    )
    def test_explain_prints_sort_distinct_and_limit(self, sql, lines):
        assert plan(sql).explain().splitlines() == lines


class TestAccessPaths:
    """Where the join tree starts and which joins probe an index (schema-aware)."""

    @staticmethod
    def explain(sql):
        return Executor(movie_database()).explain(parse_select(sql))

    @staticmethod
    def start(text):
        """The start binding's scan: the first scan an explain prints."""
        return next(line.strip() for line in text.splitlines() if "Scan(" in line)

    def test_q1_starts_at_the_actor_and_probes_per_outer_row(self):
        assert self.explain(PAPER_QUERIES["Q1"]).splitlines() == [
            "Project(m.title)",
            "  IndexJoin(m.id = c.mid)",
            "    IndexJoin(c.aid = a.id)",
            "      IndexScan(ACTOR AS a: a.name = 'Brad Pitt')",
            "      Scan(CAST AS c)",
            "    Scan(MOVIES AS m)",
        ]

    def test_six_way_join_starts_at_the_director(self):
        assert self.explain(PAPER_QUERIES["Q2"]).splitlines() == [
            "Project(a.name, m.title)",
            "  IndexJoin(m.id = g.mid)",
            "    IndexJoin(c.aid = a.id)",
            "      IndexJoin(m.id = c.mid)",
            "        IndexJoin(m.id = r.mid)",
            "          IndexJoin(r.did = d.id)",
            "            IndexScan(DIRECTOR AS d: d.name = 'G. Loucas')",
            "            Scan(DIRECTED AS r)",
            "          Scan(MOVIES AS m)",
            "        Scan(CAST AS c)",
            "      Scan(ACTOR AS a)",
            "    IndexScan(GENRE AS g: g.genre = 'action')",
        ]

    @pytest.mark.parametrize("name", ["Q3", "Q4", "Q7", "Q8"])
    def test_tree_from_a_full_scan_keeps_from_order_and_hash_joins(self, name):
        text = self.explain(PAPER_QUERIES[name])
        assert "IndexJoin" not in text and "HashJoin" in text
        assert self.start(text) == "Scan(MOVIES AS m)"

    def test_filtered_inner_input_keeps_the_hash_join(self):
        text = self.explain(
            "select m.title from MOVIES m, CAST c where m.id = 4 and m.id = c.mid and c.role > 'A'"
        )
        assert "HashJoin(m.id = c.mid)" in text and "IndexJoin" not in text

    def test_undeclared_join_column_runs_a_nested_loop(self):
        # No condition joins two declared columns, so the join has no key.
        text = self.explain("select m.title from MOVIES m, CAST c where m.id = 4 and m.nosuch = c.mid")
        assert "NestedLoopJoin(m.nosuch = c.mid)" in text and "IndexJoin" not in text
