"""Tests for the SQL printer (round-trips) and the semantic validator."""

import pytest

from repro.datasets import PAPER_QUERIES, movie_schema
from repro.errors import SqlValidationError
from repro.sql import ast
from repro.sql.parser import parse_select, parse_sql
from repro.sql.printer import expression_to_sql, to_sql
from repro.sql.validator import Validator, validate


class TestPrinterRoundTrip:
    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    def test_paper_queries_round_trip(self, name):
        first = parse_select(PAPER_QUERIES[name])
        printed = to_sql(first)
        second = parse_select(printed)
        assert first == second

    @pytest.mark.parametrize(
        "sql",
        [
            "select distinct m.title from MOVIES m where m.year between 2000 and 2005",
            "select title from MOVIES where title like 'S%' order by year desc limit 3",
            "select count(distinct year) from MOVIES group by title having count(*) > 1",
            "select a.name from ACTOR a where a.id in (1, 2, 3)",
            "select title from MOVIES where year is not null",
            "select case when year > 2000 then 'new' else 'old' end as era from MOVIES",
        ],
    )
    def test_misc_round_trips(self, sql):
        first = parse_select(sql)
        assert parse_select(to_sql(first)) == first

    def test_dml_round_trips(self):
        for sql in (
            "insert into MOVIES (id, title, year) values (1, 'A', 2000)",
            "update MOVIES set year = 2001 where id = 1",
            "delete from MOVIES where year < 1980",
            "create view recent as select title from MOVIES where year > 2000",
        ):
            statement = parse_sql(sql)
            assert parse_sql(to_sql(statement)) == statement

    def test_top_level_parentheses_are_dropped(self):
        query = parse_select("select * from R where (a = 1 and b = 2)")
        assert to_sql(query).count("WHERE (a = 1) AND (b = 2)") == 1

    def test_expression_to_sql_literal_escaping(self):
        assert expression_to_sql(ast.Literal("O'Hara")) == "'O''Hara'"

    def test_null_and_booleans(self):
        assert expression_to_sql(ast.Literal(None)) == "NULL"
        assert expression_to_sql(ast.Literal(True)) == "TRUE"


class TestValidator:
    @pytest.fixture
    def schema(self):
        return movie_schema()

    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    def test_paper_queries_validate(self, schema, name):
        result = validate(schema, parse_select(PAPER_QUERIES[name]))
        assert result.bindings

    def test_unknown_relation(self, schema):
        with pytest.raises(SqlValidationError):
            validate(schema, parse_select("select * from NOSUCH"))

    def test_unknown_column(self, schema):
        with pytest.raises(SqlValidationError):
            validate(schema, parse_select("select m.rating from MOVIES m"))

    def test_unknown_alias(self, schema):
        with pytest.raises(SqlValidationError):
            validate(schema, parse_select("select x.title from MOVIES m"))

    def test_ambiguous_unqualified_column(self, schema):
        with pytest.raises(SqlValidationError):
            validate(schema, parse_select("select id from MOVIES m, ACTOR a"))

    def test_unambiguous_unqualified_column(self, schema):
        result = validate(schema, parse_select("select title from MOVIES m, ACTOR a"))
        assert result.resolved_columns[0].relation.name == "MOVIES"

    def test_resolved_columns_are_qualified_by_their_binding(self, schema):
        sql = "select m.title, year, a.name from MOVIES m, ACTOR a where m.id = 4"
        result = validate(schema, parse_select(sql))
        assert [c.qualified for c in result.resolved_columns] == [
            "m.title", "m.year", "a.name", "m.id",
        ]
        assert result.relation_for("a").name == "ACTOR"

    def test_relation_for_an_unknown_binding_raises(self, schema):
        result = validate(schema, parse_select("select m.title from MOVIES m"))
        assert result.relation_for("m").name == "MOVIES"
        with pytest.raises(SqlValidationError, match="unknown table binding 'x'"):
            result.relation_for("x")

    def test_duplicate_alias_rejected(self, schema):
        with pytest.raises(SqlValidationError):
            validate(schema, parse_select("select * from MOVIES m, CAST m"))

    def test_correlated_subquery_sees_outer_bindings(self, schema):
        sql = (
            "select m.title from MOVIES m where exists"
            " (select * from GENRE g where g.mid = m.id)"
        )
        result = Validator(schema).validate_select(parse_select(sql))
        assert result.subquery_results

    def test_insert_column_mismatch(self, schema):
        with pytest.raises(SqlValidationError):
            validate(schema, parse_sql("insert into MOVIES (id, title) values (1)"))

    def test_insert_unknown_column(self, schema):
        with pytest.raises(SqlValidationError):
            validate(schema, parse_sql("insert into MOVIES (rating) values (5)"))

    def test_update_unknown_column(self, schema):
        with pytest.raises(SqlValidationError):
            validate(schema, parse_sql("update MOVIES set rating = 5"))

    def test_delete_validates_where(self, schema):
        with pytest.raises(SqlValidationError):
            validate(schema, parse_sql("delete from MOVIES where rating = 5"))

    def test_valid_dml_passes(self, schema):
        validate(schema, parse_sql("update MOVIES set year = 2001 where id = 1"))
        validate(schema, parse_sql("delete from MOVIES where year < 1980"))
        validate(schema, parse_sql("insert into MOVIES (id, title, year) values (99, 'X', 2000)"))
