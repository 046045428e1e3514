"""Tests for query execution: joins, aggregation, subqueries, DML."""

import pytest

from repro.datasets import employee_database, movie_database, MANAGER_QUERY
from repro.engine import Executor
from repro.engine.result import DmlResult, QueryResult
from repro.errors import UnsupportedQueryError


@pytest.fixture
def executor() -> Executor:
    return Executor(movie_database())


class TestBasicSelect:
    def test_project_single_column(self, executor):
        result = executor.execute_sql("select title from MOVIES where year = 2005")
        assert result.to_tuples() == [("Match Point",)]

    def test_select_star(self, executor):
        result = executor.execute_sql("select * from DIRECTOR where id = 1")
        assert result.columns == (
            "DIRECTOR.id", "DIRECTOR.name", "DIRECTOR.bdate", "DIRECTOR.blocation",
        )
        assert result.rows[0]["name"] == "Woody Allen"

    def test_alias_in_output(self, executor):
        result = executor.execute_sql("select m.title as movie_title from MOVIES m limit 1")
        assert result.columns == ("movie_title",)

    def test_distinct(self, executor):
        result = executor.execute_sql("select distinct g.genre from GENRE g")
        assert sorted(result.column("g.genre")) == ["action", "comedy", "drama", "romance", "thriller"]

    def test_order_by_desc_and_limit(self, executor):
        result = executor.execute_sql("select title, year from MOVIES order by year desc limit 2")
        assert result.to_tuples() == [("Match Point", 2005), ("Melinda and Melinda", 2004)]

    def test_order_by_ascending_ties_stable(self, executor):
        result = executor.execute_sql("select title from MOVIES order by year")
        assert result.to_tuples()[0] == ("Star Battles",)

    def test_offset(self, executor):
        all_rows = executor.execute_sql("select title from MOVIES order by year").to_tuples()
        offset_rows = executor.execute_sql(
            "select title from MOVIES order by year limit 3 offset 2"
        ).to_tuples()
        assert offset_rows == all_rows[2:5]

    @pytest.mark.parametrize("compiled", [True, False])
    def test_limit_stops_reading_its_input(self, compiled):
        # Every row after the limit would raise (a title compared with a
        # number); LIMIT must never build them.
        executor = Executor(movie_database(), compiled=compiled)
        for _ in range(3):  # first sighting, compile, shape-plan hit
            none = executor.execute_sql(
                "select m.title from MOVIES m where m.year > 2000 and m.title > 5 limit 0"
            )
            first = executor.execute_sql(
                "select m.title from MOVIES m where m.id = 1 or m.title > 5 limit 1"
            )
            assert none.to_tuples() == []
            assert first.to_tuples() == [("Match Point",)]

    def test_empty_result(self, executor):
        result = executor.execute_sql("select title from MOVIES where year = 1900")
        assert result.is_empty and not result

    def test_in_list(self, executor):
        result = executor.execute_sql("select title from MOVIES where id in (1, 3)")
        assert set(result.column("title")) == {"Match Point", "Anything Else"}

    def test_like(self, executor):
        result = executor.execute_sql("select title from MOVIES where title like 'Star%'")
        assert result.row_count == 2

    def test_between(self, executor):
        result = executor.execute_sql(
            "select title from MOVIES where year between 2003 and 2004"
        )
        assert result.row_count == 3


class TestOrderBy:
    """The sort runner and its fallbacks against the interpreted oracle.

    Each case reaches another way an ORDER BY item is resolved: a base
    column the select list drops, a select alias, an aggregate's SQL text,
    a correlated scalar subquery's alias, under DISTINCT, and with an
    EXISTS filter and LIMIT.  Both modes run each text three times (first
    sighting, compile, shape-plan hit).
    """

    CASES = [
        (
            "select m.title from MOVIES m where m.year > 2003 order by m.year desc, m.id",
            [("Match Point",), ("Melinda and Melinda",), ("Troy",)],
        ),
        (
            "select m.title as t from MOVIES m order by t desc limit 3",
            [("Troy",), ("The Galactic Menace",), ("Star Battles",)],
        ),
        (
            "select g.genre, count(*) from GENRE g group by g.genre"
            " order by count(*) desc, g.genre",
            [("action", 5), ("comedy", 3), ("drama", 3), ("romance", 2), ("thriller", 2)],
        ),
        (
            "select m.title, (select count(*) from CAST c where c.mid = m.id) as n"
            " from MOVIES m order by n desc, m.title",
            [
                ("Match Point", 2), ("Ocean Heist", 2), ("Seven", 2), ("Troy", 2),
                ("Anything Else", 1), ("Melinda and Melinda", 1), ("Star Battles", 1),
                ("Star Battles", 1), ("The Galactic Menace", 0),
            ],
        ),
        (
            "select distinct m.year from MOVIES m order by m.year desc",
            [(2005,), (2004,), (2003,), (2001,), (1999,), (1997,), (1995,), (1977,)],
        ),
        (
            "select m.title from MOVIES m where exists"
            " (select * from CAST c where c.mid = m.id) order by m.title limit 2",
            [("Anything Else",), ("Match Point",)],
        ),
    ]

    @pytest.mark.parametrize("sql, expected", CASES)
    def test_both_modes_give_the_expected_rows(self, sql, expected):
        database = movie_database()
        for compiled in (True, False):
            executor = Executor(database, compiled=compiled)
            for _ in range(3):
                assert executor.execute_sql(sql).to_tuples() == expected


class TestPlansAreBuiltOnce:
    """A compiled executor builds each plan's runners once and keeps them."""

    VECTOR_FILTER = "select m.title, m.year from MOVIES m where m.year > 2000 and m.title like 'S%'"

    @pytest.fixture
    def builds(self, monkeypatch):
        from repro.engine import executor as executor_module
        from repro.engine.compile import ExpressionCompiler

        counts = {"compile": 0, "vector": 0, "build": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            ExpressionCompiler, "compile", counted("compile", ExpressionCompiler.compile)
        )
        monkeypatch.setattr(
            executor_module,
            "VectorExpressionCompiler",
            counted("vector", executor_module.VectorExpressionCompiler),
        )
        monkeypatch.setattr(Executor, "_build", counted("build", Executor._build))
        return counts

    @staticmethod
    def columnar_movies():
        from repro.storage.config import StorageConfig

        return movie_database().with_storage(StorageConfig(default_engine="columnar"))

    def test_nothing_is_compiled_from_the_third_sighting_on(self, builds):
        from repro.datasets import PAPER_QUERIES

        database = self.columnar_movies()
        executor = Executor(database, compiled=True)
        texts = list(PAPER_QUERIES.values()) + [self.VECTOR_FILTER]
        for sql in texts:
            executor.execute_sql(sql)  # first sighting: private scope
            executor.execute_sql(sql)  # second: compiles the shape plan
        assert builds["compile"] and builds["vector"] and builds["build"]
        assert executor.vector_scans
        # A write drops the subquery tables, so Q5-Q9's blocks are built
        # again, through the runners kept from their first build.
        database.insert("GENRE", {"mid": 3, "genre": "drama"})
        oracle = Executor(database, compiled=False)
        answers = [oracle.execute_sql(sql).to_tuples() for sql in texts]
        tables = executor.subquery_tables
        builds.update(compile=0, vector=0, build=0)
        for _ in range(2):
            assert [executor.execute_sql(sql).to_tuples() for sql in texts] == answers
        assert builds == {"compile": 0, "vector": 0, "build": 0}
        assert executor.subquery_tables > tables

    def test_interpreted_executor_builds_on_every_call(self, builds):
        executor = Executor(self.columnar_movies(), compiled=False)
        for calls in range(1, 4):
            executor.execute_sql(self.VECTOR_FILTER)
            assert builds["build"] >= calls * 4  # Project, two Filters, Scan


class TestJoins:
    def test_fk_join(self, executor):
        result = executor.execute_sql(
            "select a.name from ACTOR a, CAST c where a.id = c.aid and c.mid = 4"
        )
        assert set(result.column("a.name")) == {"Brad Pitt", "Eric Bana"}

    def test_three_way_join(self, executor):
        result = executor.execute_sql(
            "select m.title from MOVIES m, DIRECTED r, DIRECTOR d"
            " where m.id = r.mid and r.did = d.id and d.name = 'Woody Allen'"
        )
        assert set(result.column("m.title")) == {
            "Match Point", "Melinda and Melinda", "Anything Else",
        }

    def test_self_join_inequality(self, executor):
        result = executor.execute_sql(
            "select a1.name, a2.name from CAST c1, CAST c2, ACTOR a1, ACTOR a2"
            " where c1.mid = c2.mid and c1.aid = a1.id and c2.aid = a2.id and a1.id > a2.id"
        )
        assert result.row_count == 4

    def test_cross_product(self, executor):
        result = executor.execute_sql("select d.name, g.genre from DIRECTOR d, GENRE g")
        assert result.row_count == 4 * 15

    def test_manager_query(self):
        result = Executor(employee_database()).execute_sql(MANAGER_QUERY)
        assert result.to_tuples() == [("Carol Chen",)]


class TestAggregation:
    def test_count_star_whole_table(self, executor):
        assert executor.execute_sql("select count(*) from MOVIES").scalar() == 9

    def test_group_by_with_count(self, executor):
        result = executor.execute_sql(
            "select g.genre, count(*) from GENRE g group by g.genre order by g.genre"
        )
        as_dict = dict(result.to_tuples())
        assert as_dict["action"] == 5 and as_dict["drama"] == 3

    def test_count_distinct(self, executor):
        assert (
            executor.execute_sql("select count(distinct m.year) from MOVIES m").scalar() == 8
        )

    def test_sum_avg_min_max(self, executor):
        result = executor.execute_sql(
            "select sum(m.year), avg(m.year), min(m.year), max(m.year) from MOVIES m"
            " where m.id in (1, 2)"
        )
        row = result.to_tuples()[0]
        assert row == (4009, 2004.5, 2004, 2005)

    def test_aggregates_ignore_nulls(self):
        database = movie_database(seed_data=False)
        database.insert("MOVIES", {"id": 1, "title": "A", "year": None})
        database.insert("MOVIES", {"id": 2, "title": "B", "year": 2000})
        executor = Executor(database)
        assert executor.execute_sql("select avg(m.year) from MOVIES m").scalar() == 2000
        assert executor.execute_sql("select count(m.year) from MOVIES m").scalar() == 1

    def test_having_filters_groups(self, executor):
        result = executor.execute_sql(
            "select g.genre, count(*) from GENRE g group by g.genre having count(*) >= 3"
        )
        assert set(result.column("g.genre")) == {"action", "comedy", "drama"}

    def test_group_by_empty_input(self, executor):
        result = executor.execute_sql(
            "select g.genre, count(*) from GENRE g where g.genre = 'western' group by g.genre"
        )
        assert result.is_empty

    def test_aggregate_without_group_by_on_empty_input(self, executor):
        assert (
            executor.execute_sql("select count(*) from MOVIES where year = 1900").scalar() == 0
        )


class TestSubqueries:
    def test_uncorrelated_in(self, executor):
        result = executor.execute_sql(
            "select title from MOVIES where id in (select mid from GENRE where genre = 'thriller')"
        )
        assert set(result.column("title")) == {"Seven", "Ocean Heist"}

    def test_correlated_exists(self, executor):
        result = executor.execute_sql(
            "select m.title from MOVIES m where not exists"
            " (select * from CAST c where c.mid = m.id)"
        )
        assert set(result.column("m.title")) == {"The Galactic Menace"}

    def test_scalar_subquery(self, executor):
        result = executor.execute_sql(
            "select m.title from MOVIES m where m.year ="
            " (select max(m2.year) from MOVIES m2)"
        )
        assert result.to_tuples() == [("Match Point",)]

    def test_quantified_all(self, executor):
        result = executor.execute_sql(
            "select m.title from MOVIES m where m.year >= all (select m2.year from MOVIES m2)"
        )
        assert result.to_tuples() == [("Match Point",)]

    def test_quantified_any(self, executor):
        result = executor.execute_sql(
            "select distinct m.title from MOVIES m where m.id = any"
            " (select g.mid from GENRE g where g.genre = 'romance')"
        )
        assert set(result.column("m.title")) == {"Match Point", "Ocean Heist"}


class TestDml:
    def test_insert_update_delete_cycle(self):
        executor = Executor(movie_database())
        inserted = executor.execute_sql(
            "insert into MOVIES (id, title, year) values (50, 'Test Film', 2007)"
        )
        assert isinstance(inserted, DmlResult) and inserted.affected_rows == 1
        updated = executor.execute_sql("update MOVIES set year = 2008 where id = 50")
        assert updated.affected_rows == 1
        assert executor.execute_sql("select year from MOVIES where id = 50").scalar() == 2008
        deleted = executor.execute_sql("delete from MOVIES where id = 50")
        assert deleted.affected_rows == 1

    def test_explain_returns_text(self):
        executor = Executor(movie_database())
        from repro.sql import parse_select

        assert "Scan(MOVIES" in executor.explain(parse_select("select title from MOVIES m"))

    def test_format_table(self):
        executor = Executor(movie_database())
        text = executor.execute_sql("select title, year from MOVIES limit 2").format_table()
        assert "title" in text and "|" in text

    def test_unsupported_statement(self):
        executor = Executor(movie_database())
        from repro.sql import parse_sql

        with pytest.raises(UnsupportedQueryError):
            executor.execute(parse_sql("create view v as select title from MOVIES"))
