"""Tests for the SQL parser."""

import pytest

from repro.datasets import PAPER_QUERIES
from repro.errors import SqlParseError
from repro.sql import ast
from repro.sql.parser import parse_select, parse_sql


class TestSelectBasics:
    def test_select_list_aliases(self):
        query = parse_select("select m.title as t, m.year y from MOVIES m")
        assert query.select_items[0].alias == "t"
        assert query.select_items[1].alias == "y"

    def test_from_aliases(self):
        query = parse_select("select * from MOVIES m, CAST c")
        assert [t.binding for t in query.from_tables] == ["m", "c"]

    def test_distinct(self):
        assert parse_select("select distinct title from MOVIES").distinct

    def test_star_and_qualified_star(self):
        query = parse_select("select *, m.* from MOVIES m")
        assert isinstance(query.select_items[0].expression, ast.Star)
        assert query.select_items[1].expression.table == "m"

    def test_group_by_having(self):
        query = parse_select(
            "select year, count(*) from MOVIES group by year having count(*) > 1"
        )
        assert len(query.group_by) == 1
        assert query.having is not None

    def test_order_by_directions(self):
        query = parse_select("select title from MOVIES order by year desc, title")
        assert query.order_by[0].descending is True
        assert query.order_by[1].descending is False

    def test_limit_offset(self):
        query = parse_select("select title from MOVIES limit 5 offset 2")
        assert query.limit == 5
        assert query.offset == 2

    def test_limit_requires_integer(self):
        with pytest.raises(SqlParseError):
            parse_select("select title from MOVIES limit 'x'")

    def test_explicit_join_normalised(self):
        query = parse_select(
            "select m.title from MOVIES m join CAST c on m.id = c.mid"
        )
        assert len(query.from_tables) == 2
        assert any(
            isinstance(c, ast.BinaryOp) and c.op == "="
            for c in ast.conjuncts(query.where)
        )


class TestExpressions:
    def test_operator_precedence_and_or(self):
        query = parse_select("select * from R where a = 1 or b = 2 and c = 3")
        assert isinstance(query.where, ast.BinaryOp)
        assert query.where.op == "OR"

    def test_arithmetic_precedence(self):
        query = parse_select("select * from R where a = 1 + 2 * 3")
        comparison = query.where
        addition = comparison.right
        assert addition.op == "+"
        assert addition.right.op == "*"

    def test_not_exists(self):
        query = parse_select("select * from R where not exists (select * from S)")
        conjunct = ast.conjuncts(query.where)[0]
        assert isinstance(conjunct, ast.Exists) and conjunct.negated

    def test_in_list_and_subquery(self):
        in_list = parse_select("select * from R where a in (1, 2, 3)").where
        assert isinstance(in_list, ast.InList)
        in_sub = parse_select("select * from R where a in (select b from S)").where
        assert isinstance(in_sub, ast.InSubquery)

    def test_not_in(self):
        query = parse_select("select * from R where a not in (1, 2)")
        assert query.where.negated is True

    def test_between(self):
        query = parse_select("select * from R where a between 1 and 5")
        assert isinstance(query.where, ast.Between)

    def test_like(self):
        query = parse_select("select * from R where name like 'Brad%'")
        assert query.where.op == "LIKE"

    def test_is_null_and_is_not_null(self):
        assert isinstance(parse_select("select * from R where a is null").where, ast.IsNull)
        assert parse_select("select * from R where a is not null").where.negated

    def test_quantified_all(self):
        query = parse_select("select * from R where a <= all (select b from S)")
        where = query.where
        assert isinstance(where, ast.QuantifiedComparison)
        assert where.quantifier == "ALL"
        assert where.op == "<="

    def test_quantified_any_and_some(self):
        any_query = parse_select("select * from R where a = any (select b from S)").where
        some_query = parse_select("select * from R where a = some (select b from S)").where
        assert any_query.quantifier == "ANY"
        assert some_query.quantifier == "ANY"

    def test_scalar_subquery_comparison(self):
        query = parse_select(
            "select * from R where 1 < (select count(*) from S)"
        )
        assert isinstance(query.where.right, ast.ScalarSubquery)

    def test_count_distinct(self):
        query = parse_select("select count(distinct year) from MOVIES")
        call = query.select_items[0].expression
        assert call.name == "COUNT" and call.distinct

    def test_count_star(self):
        call = parse_select("select count(*) from MOVIES").select_items[0].expression
        assert isinstance(call.args[0], ast.Star)

    def test_case_expression(self):
        query = parse_select(
            "select case when year > 2000 then 'new' else 'old' end from MOVIES"
        )
        assert isinstance(query.select_items[0].expression, ast.CaseExpression)

    def test_case_requires_when(self):
        with pytest.raises(SqlParseError):
            parse_select("select case end from MOVIES")

    def test_unary_minus_folds_into_literal(self):
        query = parse_select("select * from R where a = -5")
        assert query.where.right.value == -5

    def test_neq_normalised(self):
        query = parse_select("select * from R where a != 1")
        assert query.where.op == "<>"

    def test_string_concat(self):
        query = parse_select("select a || b from R")
        assert query.select_items[0].expression.op == "||"


class TestOtherStatements:
    def test_insert(self):
        statement = parse_sql(
            "insert into MOVIES (id, title) values (1, 'A'), (2, 'B')"
        )
        assert isinstance(statement, ast.InsertStatement)
        assert len(statement.rows) == 2

    def test_update(self):
        statement = parse_sql("update MOVIES set year = 2001 where id = 1")
        assert isinstance(statement, ast.UpdateStatement)
        assert statement.assignments[0][0] == "year"

    def test_delete(self):
        statement = parse_sql("delete from MOVIES where year < 1980")
        assert isinstance(statement, ast.DeleteStatement)

    def test_create_view(self):
        statement = parse_sql("create view recent as select title from MOVIES where year > 2000")
        assert isinstance(statement, ast.CreateViewStatement)
        assert statement.name == "recent"

    @pytest.mark.parametrize(
        "sql, columns, literals",
        [
            (
                "select case when m.year > 2000 then m.title else 'old' end from MOVIES m",
                ["m.year", "m.title"], [2000, "old"],
            ),
            ("insert into MOVIES (id, title) values (1, 'A'), (2, 'B')", [], [1, "A", 2, "B"]),
            (
                "update MOVIES set year = year + 1, title = 'T' where id = 4",
                ["year", "id"], [1, "T", 4],
            ),
            ("delete from MOVIES where year < 1980", ["year"], [1980]),
            (
                "create view recent as select title from MOVIES where year > 2000",
                ["title", "year"], [2000],
            ),
        ],
    )
    def test_walk_reaches_every_operand(self, sql, columns, literals):
        nodes = list(parse_sql(sql).walk())
        assert [n.qualified for n in nodes if isinstance(n, ast.ColumnRef)] == columns
        assert [n.value for n in nodes if isinstance(n, ast.Literal)] == literals

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlParseError):
            parse_sql("select * from R garbage garbage garbage)")

    def test_semicolon_accepted(self):
        assert parse_sql("select title from MOVIES;")

    def test_parse_select_rejects_dml(self):
        with pytest.raises(SqlParseError):
            parse_select("delete from MOVIES")


class TestPaperQueries:
    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    def test_every_paper_query_parses(self, name):
        statement = parse_select(PAPER_QUERIES[name])
        assert isinstance(statement, ast.SelectStatement)

    def test_q5_is_doubly_nested(self):
        statement = parse_select(PAPER_QUERIES["Q5"])
        assert statement.is_nested()
        inner = statement.subqueries()[0]
        assert inner.is_nested()

    def test_q7_has_aggregates_and_group_by(self):
        statement = parse_select(PAPER_QUERIES["Q7"])
        assert statement.has_aggregates()
        assert len(statement.group_by) == 2

    def test_q3_has_five_tables(self):
        statement = parse_select(PAPER_QUERIES["Q3"])
        assert len(statement.from_tables) == 5
