"""Tests for query execution: joins, aggregation, subqueries, DML."""

import pytest

from repro.datasets import employee_database, movie_database, MANAGER_QUERY
from repro.engine import Executor
from repro.engine.result import DmlResult, QueryResult
from repro.errors import EvaluationError, UnsupportedQueryError
from repro.storage.config import STORAGE_ENGINES, StorageConfig


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

    @pytest.mark.parametrize("compiled", [True, False])
    def test_one_argument_function_with_another_count(self, compiled):
        # A call with the wrong number of arguments fails when it is
        # evaluated, with a typed error, never while the plan is built.
        executor = Executor(movie_database(), compiled=compiled)
        for _ in range(3):  # first sighting, compile, shape-plan hit
            for sql in ("select lower() from MOVIES m where 1 = 0",
                        "select lower() from MOVIES m limit 0"):
                assert executor.execute_sql(sql).to_tuples() == []
            with pytest.raises(EvaluationError, match="LOWER takes one argument, got 0"):
                executor.execute_sql("select lower() from MOVIES m")
            with pytest.raises(EvaluationError, match="LOWER takes one argument, got 2"):
                executor.execute_sql("select lower(m.title, m.title) from MOVIES m")

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


class TestFormsNoDriverSends:
    """SQL the parser accepts that neither the corpus nor a benchmark sends.

    FROM-less selects (one empty row through WHERE, aggregates, ORDER BY
    and LIMIT), OR, the negated BETWEEN/IN/LIKE forms, IN lists
    with a NULL, IS [NOT] NULL, CASE with and without ELSE, unary minus,
    NOT, COALESCE, arithmetic in a filter, DISTINCT over two columns,
    OFFSET past the end, quoted identifiers, EXISTS under OR and a scalar
    subquery in the select list.  The database gains one movie with a NULL
    year first, so the three-valued cases have a NULL to meet.  Both modes
    run each text three times (first sighting, compile, shape-plan hit)
    on every storage engine.
    """

    CASES = [
        ("select 1 + 2 as x", [(3,)]),
        ("select 1 as x where 1 = 0", []),
        ("select 1 as x order by x limit 0", []),
        ("select count(*) where 1 = 0", [(0,)]),
        ("select count(*)", [(1,)]),
        (
            "select m.title from MOVIES m where m.year = 1977 or m.year = 2005 order by m.title",
            [("Match Point",), ("Star Battles",)],
        ),
        (
            "select m.title from MOVIES m where m.year not between 1996 and 2004 order by m.year",
            [("Star Battles",), ("Seven",), ("Match Point",)],
        ),
        (
            "select m.title from MOVIES m where m.id not in (1, 2, 3, 4, 5) order by m.id",
            [("Star Battles",), ("Star Battles",), ("The Galactic Menace",),
             ("Ocean Heist",), ("Untitled",)],
        ),
        ("select m.id from MOVIES m where m.year in (1977, null) order by m.id", [(6,)]),
        ("select m.id from MOVIES m where m.year not in (1977, null)", []),
        (
            "select m.title from MOVIES m where m.title not like 'S%' and m.title like '%o_'"
            " order by m.title",
            [("Troy",)],
        ),
        ("select m.id from MOVIES m where m.year is null", [(11,)]),
        ("select count(*) from MOVIES m where m.year is not null", [(9,)]),
        (
            "select m.title, case when m.year < 1990 then 'old' when m.year < 2002 then 'recent'"
            " else 'new' end from MOVIES m where m.id < 7 order by m.id",
            [("Match Point", "new"), ("Melinda and Melinda", "new"), ("Anything Else", "new"),
             ("Troy", "new"), ("Seven", "recent"), ("Star Battles", "old")],
        ),
        (
            "select m.id, case when m.year > 2003 then m.year end from MOVIES m"
            " where m.id <= 3 order by m.id",
            [(1, 2005), (2, 2004), (3, None)],
        ),
        ("select m.id, -m.year from MOVIES m where m.id = 6", [(6, -1977)]),
        ("select m.title from MOVIES m where not (m.year > 1980) order by m.id",
         [("Star Battles",)]),
        (
            "select m.id, coalesce(m.year, 0) from MOVIES m where m.id > 9 order by m.id",
            [(10, 2001), (11, 0)],
        ),
        (
            "select distinct m.title, g.genre from MOVIES m, GENRE g"
            " where g.mid = m.id and g.genre = 'action' order by m.title, g.genre",
            [("Ocean Heist", "action"), ("Star Battles", "action"),
             ("The Galactic Menace", "action"), ("Troy", "action")],
        ),
        ("select m.title from MOVIES m order by m.id limit 5 offset 20", []),
        (
            "select m.title from MOVIES m where m.year - 2000 > 3 order by m.id",
            [("Match Point",), ("Melinda and Melinda",), ("Troy",)],
        ),
        ('select "m"."title" from MOVIES "m" where "m"."id" = 4', [("Troy",)]),
        (
            "select m.title from MOVIES m where m.year = 1977 or exists"
            " (select * from CAST c where c.mid = m.id and c.role = 'Rusty') order by m.id",
            [("Star Battles",), ("Ocean Heist",)],
        ),
        (
            "select m.title, (select count(*) from GENRE g where g.mid = m.id) as n"
            " from MOVIES m where m.id in (1, 8) order by m.id",
            [("Match Point", 2), ("The Galactic Menace", 1)],
        ),
    ]

    @pytest.mark.parametrize("sql, expected", CASES)
    def test_both_modes_give_the_expected_rows(self, sql, expected):
        for engine in STORAGE_ENGINES:
            database = movie_database().with_storage(StorageConfig(default_engine=engine))
            Executor(database).execute_sql(
                "insert into MOVIES (id, title) values (11, 'Untitled')"
            )
            for compiled in (True, False):
                executor = Executor(database, compiled=compiled)
                for _ in range(3):
                    assert executor.execute_sql(sql).to_tuples() == expected, engine


class TestNameResolution:
    """How column names resolve, pinned as literal answers.

    A row resolves a name by exact match, then by the first
    case-insensitive match, then by a unique suffix after the binding;
    an unknown or ambiguous name fails only when a row is evaluated.  A
    correlated subquery resolves against the outer row merged with its
    own, so an unqualified name can reach the outer row and an inner
    binding shadows an outer one of the same name.  A star selects its
    tables' columns in FROM order, whatever table the join starts at.
    Each answer is the result's columns and every row's keys and values
    in order, or the error's text; both modes run each text three times
    (first sighting, compile, shape-plan hit) on every storage engine.
    """

    CASES = [
        (
            "select M.TITLE from MOVIES m where m.id = 1",
            (("M.TITLE",), [[("M.TITLE", "Match Point")]]),
        ),
        (
            "select title, genre from MOVIES m, GENRE g where g.mid = m.id and m.id = 1"
            " order by genre",
            (
                ("title", "genre"),
                [[("title", "Match Point"), ("genre", "drama")],
                 [("title", "Match Point"), ("genre", "romance")]],
            ),
        ),
        ("select nosuch from MOVIES m where 1 = 0", (("nosuch",), [])),
        (
            "select nosuch from MOVIES m",
            "unknown column 'nosuch' in row ['m.id', 'm.title', 'm.year']",
        ),
        (
            "select title from MOVIES a, MOVIES b where a.id = b.id",
            "ambiguous column reference 'title'",
        ),
        (
            "select * from MOVIES a, MOVIES b where a.id = 1 and b.id = 2",
            (
                ("a.id", "a.title", "a.year", "b.id", "b.title", "b.year"),
                [[("a.id", 1), ("a.title", "Match Point"), ("a.year", 2005),
                  ("b.id", 2), ("b.title", "Melinda and Melinda"), ("b.year", 2004)]],
            ),
        ),
        (
            "select * from MOVIES m, GENRE g where g.genre = 'drama' and g.mid = m.id",
            (
                ("m.id", "m.title", "m.year", "g.mid", "g.genre"),
                [[("m.id", 1), ("m.title", "Match Point"), ("m.year", 2005),
                  ("g.mid", 1), ("g.genre", "drama")],
                 [("m.id", 2), ("m.title", "Melinda and Melinda"), ("m.year", 2004),
                  ("g.mid", 2), ("g.genre", "drama")],
                 [("m.id", 10), ("m.title", "Ocean Heist"), ("m.year", 2001),
                  ("g.mid", 10), ("g.genre", "drama")]],
            ),
        ),
        (
            "select m.title from MOVIES m where exists"
            " (select * from GENRE g where g.mid = id and g.genre = 'drama') order by m.title",
            (
                ("m.title",),
                [[("m.title", "Match Point")], [("m.title", "Melinda and Melinda")],
                 [("m.title", "Ocean Heist")]],
            ),
        ),
        (
            "select m.title from MOVIES m where m.id in"
            " (select m.id from MOVIES m where m.year = 2004) order by m.title",
            (("m.title",), [[("m.title", "Melinda and Melinda")], [("m.title", "Troy")]]),
        ),
        (
            "select m.title from MOVIES m where exists"
            " (select * from GENRE g where g.mid = m.id and g.nosuch = 1)",
            "unknown column 'g.nosuch' in row ['g.genre', 'g.mid', 'm.id', 'm.title', 'm.year']",
        ),
        (
            "select m.year as y, m.title from MOVIES m where m.id < 4 order by y, m.title",
            (
                ("y", "m.title"),
                [[("y", 2003), ("m.title", "Anything Else")],
                 [("y", 2004), ("m.title", "Melinda and Melinda")],
                 [("y", 2005), ("m.title", "Match Point")]],
            ),
        ),
        (
            "select g.genre, count(*) from GENRE g group by g.genre having count(*) > 2"
            " order by count(*) desc, g.genre",
            (
                ("g.genre", "count(*)"),
                [[("g.genre", "action"), ("count(*)", 5)],
                 [("g.genre", "comedy"), ("count(*)", 3)],
                 [("g.genre", "drama"), ("count(*)", 3)]],
            ),
        ),
        # An aggregate without GROUP BY reads a plain column from its
        # group's first row; the one group over no rows holds only the
        # aggregates, so the column is unknown there.
        (
            "select m.title, count(*) from MOVIES m where m.id = 1",
            (("m.title", "count(*)"), [[("m.title", "Match Point"), ("count(*)", 1)]]),
        ),
        (
            "select m.title, count(*) from MOVIES m where 1 = 0",
            "unknown column 'm.title' in row ['count(*)']",
        ),
        (
            "select m.title, count(*) from MOVIES m where 1 = 0 order by count(*)",
            "unknown column 'm.title' in row ['count(*)']",
        ),
        (
            "select count(*) from MOVIES m where 1 = 0 order by m.title",
            "unknown column 'm.title' in row ['count(*)']",
        ),
        (
            "select *, count(*) from MOVIES m where 1 = 0",
            (("m.id", "m.title", "m.year", "count(*)"), [[("count(*)", 0)]]),
        ),
        (
            "select m.id from MOVIES m where m.id = 1"
            " and 0 in (select *, count(*) from MOVIES x where 1 = 0)",
            (("m.id",), [[("m.id", 1)]]),
        ),
        (
            "select m.title from MOVIES m where m.id < 3 and"
            " (select count(*) from GENRE g where g.mid = m.id and g.genre = 'nosuch') = 0"
            " order by m.title",
            (("m.title",), [[("m.title", "Match Point")], [("m.title", "Melinda and Melinda")]]),
        ),
    ]

    @pytest.mark.parametrize("sql, expected", CASES)
    def test_both_modes_give_the_expected_answer(self, sql, expected):
        for engine in STORAGE_ENGINES:
            database = movie_database().with_storage(StorageConfig(default_engine=engine))
            for compiled in (True, False):
                executor = Executor(database, compiled=compiled)
                for _ in range(3):
                    if isinstance(expected, str):
                        with pytest.raises(EvaluationError) as error:
                            executor.execute_sql(sql)
                        assert str(error.value) == expected, engine
                    else:
                        result = executor.execute_sql(sql)
                        rows = [list(row.raw.items()) for row in result.rows]
                        assert (result.columns, rows) == expected, engine


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
        assert executor.execute_sql("select count(*) from MOVIES").to_tuples() == [(9,)]

    def test_group_by_with_count(self, executor):
        result = executor.execute_sql(
            "select g.genre, count(*) from GENRE g group by g.genre order by g.genre"
        )
        as_dict = dict(result.to_tuples())
        assert as_dict["action"] == 5 and as_dict["drama"] == 3

    def test_count_distinct(self, executor):
        result = executor.execute_sql("select count(distinct m.year) from MOVIES m")
        assert result.to_tuples() == [(8,)]

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
        assert executor.execute_sql("select avg(m.year) from MOVIES m").to_tuples() == [(2000,)]
        assert executor.execute_sql("select count(m.year) from MOVIES m").to_tuples() == [(1,)]

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
        result = executor.execute_sql("select count(*) from MOVIES where year = 1900")
        assert result.to_tuples() == [(0,)]


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
        year = executor.execute_sql("select year from MOVIES where id = 50")
        assert year.to_tuples() == [(2008,)]
        deleted = executor.execute_sql("delete from MOVIES where id = 50")
        assert deleted.affected_rows == 1

    def test_explain_returns_text(self):
        executor = Executor(movie_database())
        from repro.sql import parse_select

        assert "Scan(MOVIES" in executor.explain(parse_select("select title from MOVIES m"))

    def test_execute_takes_text_or_a_parsed_statement(self):
        from repro.engine.executor import execute
        from repro.sql import parse_sql

        database = movie_database()
        inserted = execute(
            database, "insert into MOVIES (id, title, year) values (50, 'Test Film', 2007)"
        )
        assert isinstance(inserted, DmlResult) and inserted.affected_rows == 1
        result = execute(database, parse_sql("select m.title from MOVIES m where m.id = 50"))
        assert isinstance(result, QueryResult)
        assert result.to_tuples() == [("Test Film",)]

    def test_unsupported_statement(self):
        executor = Executor(movie_database())
        from repro.sql import parse_sql

        with pytest.raises(UnsupportedQueryError):
            executor.execute(parse_sql("create view v as select title from MOVIES"))
