"""Tests for the compiled execution pipeline.

Three concerns: (1) compiled expression evaluation matches the
interpreted evaluator exactly, including SQL three-valued logic and
error cases; (2) the compiled executor returns identical results to the
fully-interpreted one on the paper queries and the generated workload;
(3) every cache layer is actually used and is invalidated by DML.
"""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datasets import PAPER_QUERIES, generate_workload, movie_database
from repro.engine import Executor, ExpressionCompiler, ExpressionEvaluator
from repro.engine.plan import ScanNode, plan_query
from repro.errors import EvaluationError
from repro.sql.parser import parse_select
from repro.storage.row import Row


def interpreted(database) -> Executor:
    return Executor(database, compiled=False)


@pytest.fixture()
def db():
    return movie_database()


# ---------------------------------------------------------------------------
# Expression-level equivalence
# ---------------------------------------------------------------------------


def eval_both(sql_expr: str, row: Row):
    """Both modes' value, or the message of the EvaluationError each raised."""
    statement = parse_select(f"select {sql_expr}")
    expression = statement.select_items[0].expression
    compiled = ExpressionCompiler().compile(expression)
    evaluator = ExpressionEvaluator()
    return _outcome(compiled, row), _outcome(lambda r: evaluator.evaluate(expression, r), row)


def _outcome(evaluate, row: Row):
    try:
        return evaluate(row)
    except EvaluationError as error:
        return ("EvaluationError", str(error))


EXPRESSIONS = [
    "1 + 2 * 3",
    "10 / 4",
    "10 / 5",
    "9 % 4",
    "'a' || 'b'",
    "-x",
    "x + y",
    "x = 5",
    "x < y",
    "x <> 12",
    "name like 'B%'",
    "name like '_rad%'",
    "name not like 'Z%'",
    "x between 1 and 10",
    "x not between 6 and 10",
    "x in (1, 5, 9)",
    "x not in (1, 2)",
    "missing is null",
    "missing is not null",
    "x is null",
    "not (x = 5)",
    "x = 5 and y = 12",
    "x = 5 or y = 0",
    "lower(name)",
    "upper(name)",
    "length(name)",
    "abs(-7)",
    "coalesce(missing, x)",
    "lower()",
    "upper(name, name)",
    "length()",
    "abs(x, y)",
    "case when x > 99 then lower() else 1 end",
    "case when x > 3 then 'big' else 'small' end",
    "case when x > 99 then 'big' end",
]


@pytest.mark.parametrize("expr", EXPRESSIONS)
def test_compiled_matches_interpreted_on_expressions(expr):
    row = Row({"x": 5, "y": 12, "name": "Brad", "missing": None})
    compiled_value, interpreted_value = eval_both(expr, row)
    assert compiled_value == interpreted_value
    assert (compiled_value is None) == (interpreted_value is None)


NULL_EXPRESSIONS = [
    "missing = 5",
    "missing < 5",
    "missing like 'a%'",
    "missing between 1 and 2",
    "missing in (1, 2)",
    "x in (1, missing)",
    "missing + 1",
    "not missing",
    "-missing",
    "missing and x = 5",
    "x = 5 and missing",
    "missing or x = 99",
]


@pytest.mark.parametrize("expr", NULL_EXPRESSIONS)
def test_three_valued_logic_matches(expr):
    row = Row({"x": 5, "missing": None})
    compiled_value, interpreted_value = eval_both(expr, row)
    assert compiled_value is None and interpreted_value is None


def test_compiled_column_slot_survives_shape_change():
    statement = parse_select("select title")
    expression = statement.select_items[0].expression
    fn = ExpressionCompiler().compile(expression)
    assert fn(Row({"m.title": "Troy"})) == "Troy"
    # Different shape, same unqualified reference: the cached slot must
    # not leak across shapes.
    assert fn(Row({"b.title": "Seven", "b.year": 1995})) == "Seven"
    assert fn(Row({"m.title": "Troy"})) == "Troy"


def test_compiled_ambiguous_column_raises():
    statement = parse_select("select title")
    fn = ExpressionCompiler().compile(statement.select_items[0].expression)
    with pytest.raises(EvaluationError, match="ambiguous"):
        fn(Row({"m.title": "Troy", "d.title": "Other"}))


def test_compiled_unknown_column_raises():
    statement = parse_select("select m.nope")
    fn = ExpressionCompiler().compile(statement.select_items[0].expression)
    with pytest.raises(EvaluationError, match="unknown column"):
        fn(Row({"m.title": "Troy"}))


def test_compiled_division_by_zero_raises():
    statement = parse_select("select 1 / 0")
    fn = ExpressionCompiler().compile(statement.select_items[0].expression)
    with pytest.raises(EvaluationError, match="division by zero"):
        fn(Row({}))


def test_untaken_case_branch_never_raises():
    # Unknown functions must fail at evaluation, not compilation, and only
    # when the branch is actually taken — exactly like the interpreter.
    statement = parse_select("select case when 1 = 2 then nosuchfn(1) else 7 end")
    fn = ExpressionCompiler().compile(statement.select_items[0].expression)
    assert fn(Row({})) == 7


def test_subquery_without_a_runner_fails_only_when_evaluated():
    statement = parse_select(
        "select case when x > 99 then x in (select s.v from S s) else 0 end"
    )
    expression = statement.select_items[0].expression
    compiled = ExpressionCompiler().compile(expression)
    for evaluate in (compiled, functools.partial(ExpressionEvaluator().evaluate, expression)):
        assert evaluate(Row({"x": 5})) == 0
        with pytest.raises(EvaluationError, match="no subquery runner is configured"):
            evaluate(Row({"x": 100}))


#: Subquery connectors with ``x = 5``, each over the runner's values
#: ``[]``, ``[5, 9]`` and ``[1, NULL]``, and what SQL says they give.
SUBQUERY_EXPRESSIONS = [
    ("exists (select s.v from S s)", [False, True, True]),
    ("not exists (select s.v from S s)", [True, False, False]),
    ("x in (select s.v from S s)", [False, True, None]),
    ("x not in (select s.v from S s)", [True, False, None]),
    ("x > all (select s.v from S s)", [True, False, None]),
    ("x = any (select s.v from S s)", [False, True, None]),
]


@pytest.mark.parametrize("expr, expected", SUBQUERY_EXPRESSIONS)
def test_subquery_connectors_match_over_a_plain_runner(expr, expected):
    # A runner without an ``exists`` method: the compiled EXISTS reads its
    # rows, as the interpreter does.
    expression = parse_select(f"select {expr}").select_items[0].expression
    row = Row({"x": 5})
    outcomes = []
    for values in ([], [5, 9], [1, None]):
        def runner(select, outer, values=values):
            return [Row({"s.v": value}) for value in values]

        compiled_value = ExpressionCompiler(subquery_runner=runner).compile(expression)(row)
        interpreted_value = ExpressionEvaluator(subquery_runner=runner).evaluate(expression, row)
        assert compiled_value == interpreted_value
        outcomes.append(compiled_value)
    assert outcomes == expected


_PROPERTY_EXPRESSIONS = [
    "x + y * 2",
    "x = y",
    "x < y or y is null",
    "x between y and 100",
    "x in (0, 1, y)",
    "case when x > y then x else y end",
    "coalesce(x, y, 0)",
    "not (x <> y)",
]


@given(
    x=st.one_of(st.none(), st.integers(min_value=-1000, max_value=1000)),
    y=st.one_of(st.none(), st.integers(min_value=-1000, max_value=1000)),
)
def test_property_compiled_matches_interpreted_on_random_rows(x, y):
    row = Row({"x": x, "y": y})
    compiler = ExpressionCompiler()
    evaluator = ExpressionEvaluator()
    for text in _PROPERTY_EXPRESSIONS:
        expression = parse_select(f"select {text}").select_items[0].expression
        compiled_value = compiler.compile(expression)(row)
        interpreted_value = evaluator.evaluate(expression, row)
        assert compiled_value == interpreted_value, text
        assert (compiled_value is None) == (interpreted_value is None), text


# ---------------------------------------------------------------------------
# Executor-level equivalence (paper queries + generated workload)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
def test_paper_queries_identical_compiled_vs_interpreted(db, name):
    fast = Executor(db)
    slow = interpreted(db)
    a = fast.execute_sql(PAPER_QUERIES[name])
    b = slow.execute_sql(PAPER_QUERIES[name])
    assert a.columns == b.columns
    assert a.rows == b.rows


def test_generated_workload_identical_compiled_vs_interpreted(db):
    fast = Executor(db)
    slow = interpreted(db)
    for query in generate_workload(queries_per_category=10, seed=42):
        a = fast.execute_sql(query.sql)
        b = slow.execute_sql(query.sql)
        assert a.columns == b.columns, query.name
        assert a.rows == b.rows, query.name


def test_repeated_execution_is_stable(db):
    executor = Executor(db)
    executor.execute_sql(PAPER_QUERIES["Q5"])  # first sighting
    first = executor.execute_sql(PAPER_QUERIES["Q5"])
    second = executor.execute_sql(PAPER_QUERIES["Q5"])
    assert first.rows == second.rows


# ---------------------------------------------------------------------------
# Index-backed scans
# ---------------------------------------------------------------------------


def test_planner_pushes_equality_into_scan():
    plan = plan_query(
        parse_select("select m.title from MOVIES m where m.year = 2004"), movie_database().schema
    )

    def scans(node):
        if isinstance(node, ScanNode):
            yield node
        for child in node.children():
            yield from scans(child)

    scan = next(iter(scans(plan.root)))
    assert scan.eq_columns == ("year",)
    assert "IndexScan" in plan.explain()


def test_planner_keeps_inequality_as_filter():
    plan = plan_query(
        parse_select("select m.title from MOVIES m where m.year > 2004"), movie_database().schema
    )
    assert "Filter(m.year > 2004)" in plan.explain()
    assert "IndexScan" not in plan.explain()


def test_index_scan_creates_index_and_matches_full_scan(db):
    # Explicit compiled: the assertion is about index creation, so it
    # must keep probing indexes under REPRO_ORACLE's flipped defaults.
    executor = Executor(db, compiled=True)
    sql = "select m.title from MOVIES m where m.year = 2004"
    result = executor.execute_sql(sql)
    assert executor.database.table("MOVIES").find_index(("year",)) is not None
    assert result.rows == interpreted(db).execute_sql(sql).rows


def test_equality_with_null_literal_matches_nothing(db):
    sql = "select m.title from MOVIES m where m.year = NULL"
    assert Executor(db).execute_sql(sql).rows == []
    assert interpreted(db).execute_sql(sql).rows == []


def test_correlated_equality_uses_index(db):
    sql = (
        "select m.title from MOVIES m where exists ("
        "select * from GENRE g where g.mid = m.id and g.genre = 'action')"
    )
    a = Executor(db).execute_sql(sql)
    b = interpreted(db).execute_sql(sql)
    assert a.rows == b.rows


# ---------------------------------------------------------------------------
# Caches: usage and invalidation
# ---------------------------------------------------------------------------


def test_subquery_memo_is_used(db):
    # Explicit compiled: the assertion is about the memo itself, so it
    # must keep caching under REPRO_ORACLE's flipped defaults.
    executor = Executor(db, compiled=True)
    executor.execute_sql(PAPER_QUERIES["Q5"])
    assert executor.subquery_hits > 0


@pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
def test_pinned_plan_hit_on_repeat(db, name):
    # parameterised=False pins every literal: a repeated text is admitted
    # on its second sighting and hits on its third, and every sighting
    # matches the interpreted oracle.
    executor = Executor(db, compiled=True, parameterised=False)
    expected = interpreted(db).execute_sql(PAPER_QUERIES[name])
    for _ in range(3):
        result = executor.execute_sql(PAPER_QUERIES[name])
        assert result.columns == expected.columns
        assert result.rows == expected.rows
    stats = executor.cache_stats["shape_plans"]
    assert (stats["deferred"], stats["misses"], stats["hits"]) == (1, 2, 1)


def test_shape_cache_hit_on_repeat(db):
    # Explicit parameterised: the assertion is about the shape cache, so
    # it must keep sharing under REPRO_ORACLE's flipped defaults.
    executor = Executor(db, compiled=True, parameterised=True)
    executor.execute_sql(PAPER_QUERIES["Q1"])  # first sighting
    before = executor.cache_stats["shape_plans"]
    assert before["misses"] == before["deferred"] == 1
    executor.execute_sql(PAPER_QUERIES["Q1"])
    executor.execute_sql(PAPER_QUERIES["Q1"])
    stats = executor.cache_stats["shape_plans"]
    assert stats["misses"] - before["misses"] == 1 and stats["hits"] == 1


def test_interpreted_executor_caches_and_probes_nothing(db):
    # compiled=False is the whole interpreted oracle: no scan cache, no
    # shape plans, no subquery memo or tables, no index.
    indexes = {table.name: table.indexes() for table in db.tables}
    executor = interpreted(db)
    for _ in range(2):
        for sql in PAPER_QUERIES.values():
            executor.execute_sql(sql)
    stats = executor.cache_stats
    assert stats["scan_tables"] == 0
    assert not any(stats["shape_plans"].values())
    assert not any(stats["subquery"].values())
    assert {table.name: table.indexes() for table in db.tables} == indexes


def test_insert_through_executor_invalidates_caches(db):
    executor = Executor(db)
    executor.execute_sql("select m.title from MOVIES m where m.year = 1899")  # first sighting
    before = executor.execute_sql("select m.title from MOVIES m where m.year = 1899")
    assert before.row_count == 0
    executor.execute_sql(
        "insert into MOVIES (id, title, year) values (999, 'Cache Buster', 1899)"
    )
    after = executor.execute_sql("select m.title from MOVIES m where m.year = 1899")
    assert after.column("m.title") == ["Cache Buster"]


def test_update_through_executor_invalidates_subquery_memo(db):
    executor = Executor(db)
    sql = (
        "select g.genre from GENRE g where g.mid in "
        "(select m.id from MOVIES m where m.year = 1888)"
    )
    executor.execute_sql(sql)  # first sighting
    assert executor.execute_sql(sql).row_count == 0
    executor.execute_sql("update MOVIES set year = 1888 where id = 1")
    assert executor.execute_sql(sql).row_count == 2  # Match Point's two genres


def test_delete_through_executor_invalidates_caches(db):
    executor = Executor(db)
    executor.execute_sql("select c.role from CAST c")  # first sighting
    before = executor.execute_sql("select c.role from CAST c").row_count
    assert before > 0
    executor.execute_sql("delete from CAST")
    assert executor.execute_sql("select c.role from CAST c").row_count == 0


def test_direct_storage_mutation_is_seen_via_data_version(db):
    executor = Executor(db)
    executor.execute_sql("select m.title from MOVIES m")  # first sighting
    before = executor.execute_sql("select m.title from MOVIES m").row_count
    db.insert("MOVIES", {"id": 998, "title": "Sideloaded", "year": 2001})
    after = executor.execute_sql("select m.title from MOVIES m")
    assert after.row_count == before + 1
    assert "Sideloaded" in after.column("m.title")


def test_shadowed_alias_subquery_not_cached_as_uncorrelated(db):
    # The nested subquery reuses the outer alias `m`, which makes the
    # static correlation analysis blind to the genuinely-outer `m.id`;
    # the memo must fall back to whole-row keys, not cache the first
    # outer row's answer for every movie.
    db.insert("MOVIES", {"id": 990, "title": "Orphan Movie", "year": 2026})
    sql = (
        "select m.title from MOVIES m where exists ("
        "select * from DIRECTED d where d.mid = m.id and exists ("
        "select * from MOVIES m where m.id = d.mid))"
    )
    a = Executor(db).execute_sql(sql)
    b = interpreted(db).execute_sql(sql)
    assert sorted(a.column("m.title")) == sorted(b.column("m.title"))
    assert "Orphan Movie" not in a.column("m.title")


def test_auto_index_names_do_not_collide_across_column_sets():
    from repro.catalog.builder import SchemaBuilder
    from repro.storage.database import Database

    schema = (
        SchemaBuilder("collide")
        .relation("T")
        .column("id", "integer", primary_key=True)
        .column("a", "text")
        .column("b", "text")
        .column("a_b", "text")
        .done()
        .build(require_primary_keys=True)
    )
    database = Database(schema)
    database.insert("T", {"id": 1, "a": "x", "b": "y", "a_b": "z"})
    table = database.table("T")
    single = table.ensure_index(["a_b"])
    double = table.ensure_index(["a", "b"])
    assert single.columns == ("a_b",)
    assert double.columns == ("a", "b")
    assert table.lookup(["a", "b"], ["x", "y"])
    assert table.lookup(["a_b"], ["z"])
    executor = Executor(database)
    result = executor.execute_sql("select t.id from T t where t.a = 'x' and t.b = 'y'")
    assert result.column("t.id") == [1]


def test_nested_subquery_results_follow_dml(db):
    executor = Executor(db)
    q5 = PAPER_QUERIES["Q5"]
    executor.execute_sql(q5)  # first sighting
    before = set(executor.execute_sql(q5).column("m.title"))
    executor.execute_sql(
        "insert into MOVIES (id, title, year) values (997, 'Pitt Returns', 2020)"
    )
    [(actor_id,)] = executor.execute_sql(
        "select a.id from ACTOR a where a.name = 'Brad Pitt'"
    ).to_tuples()
    executor.execute_sql(
        f"insert into CAST (mid, aid, role) values (997, {actor_id}, 'Lead')"
    )
    after = set(executor.execute_sql(q5).column("m.title"))
    assert after == before | {"Pitt Returns"}
