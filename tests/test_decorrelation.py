"""Decorrelated subqueries: hash tables, relational division, NULL IN.

The compiled executor answers a key-correlated subquery from a hash table
built once per statement (after a rent-or-buy spell of per-key
evaluation), and decides a relational-division block by set containment.
These tests pin the answers and errors of those paths to the interpreted
oracle on generated data (NULLs, duplicates, int/float-equal keys, empty
tables), in every compiled form a statement can take: first sighting,
admitted shape plan rebound to rotated literals, and the pinned plans of
``parameterised=False``, across an INSERT and a DELETE.  They also pin the counters that show the
paths are taken, and the SQL semantics of ``NULL [NOT] IN (...)``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.executor as executor_module
from repro.catalog.builder import SchemaBuilder
from repro.datasets import PAPER_QUERIES, movie_database
from repro.datasets.generator import GeneratorConfig, generate_movie_database
from repro.engine import Executor
from repro.sql.parser import parse_select
from repro.storage.database import Database

SELECTIVE = (
    "select m.title from MOVIES m where m.id = 7 and "
    "exists (select * from CAST c where c.mid = m.id)"
)


def compiled(database: Database, parameterised: bool = True) -> Executor:
    # Explicit flags: these tests are about the compiled, cached paths and
    # must exercise them under REPRO_ORACLE's flipped defaults too.
    return Executor(database, compiled=True, parameterised=parameterised)


def oracle(database: Database) -> Executor:
    return Executor(database, compiled=False)


def outcome(executor: Executor, sql: str):
    """Rows (values by repr, so 1 and 1.0 differ) or the canonical error."""
    try:
        result = executor.execute_sql(sql)
    except Exception as exc:  # noqa: BLE001 - errors are data here
        return ("error", type(exc).__name__, tuple(str(a) for a in exc.args))
    rows = [tuple((key, repr(value)) for key, value in row.raw.items()) for row in result.rows]
    return ("rows", result.columns, rows)


# ---------------------------------------------------------------------------
# NULL [NOT] IN (subquery): `IN` is `= ANY`, false over an empty set
# ---------------------------------------------------------------------------


def _in_database() -> Database:
    schema = (
        SchemaBuilder("nulls")
        .relation("T")
        .column("id", "integer", primary_key=True)
        .column("v", "integer")
        .done()
        .relation("S")
        .column("id", "integer", primary_key=True)
        .column("w", "integer")
        .done()
        .build(require_primary_keys=True)
    )
    database = Database(schema)
    for row in ({"id": 1, "v": 1}, {"id": 2, "v": None}, {"id": 3, "v": 5}):
        database.insert("T", row)
    for row in ({"id": 10, "w": 1}, {"id": 11, "w": None}, {"id": 12, "w": 2}):
        database.insert("S", row)
    return database


_SETS = {
    "empty": "select s.w from S s where s.id = 0",
    "with_null": "select s.w from S s",
    "without_null": "select s.w from S s where s.w is not null",
}

# Expected value of `t.v [NOT] IN (<set>)` for t.v = 1, NULL, 5.
_EXPECTED = {
    ("IN", "empty"): [False, False, False],
    ("NOT IN", "empty"): [True, True, True],
    ("IN", "with_null"): [True, None, None],
    ("NOT IN", "with_null"): [False, None, None],
    ("IN", "without_null"): [True, None, False],
    ("NOT IN", "without_null"): [False, None, True],
}


def _executors(database: Database):
    return {
        "compiled": compiled(database),
        "pinned": compiled(database, parameterised=False),
        "oracle": oracle(database),
    }


@pytest.mark.parametrize("connector, subquery", sorted(_EXPECTED))
def test_in_subquery_three_valued_results(connector, subquery):
    database = _in_database()
    sql = (
        f"select t.id, t.v {connector} ({_SETS[subquery]}) as r "
        "from T t order by t.id"
    )
    for name, executor in _executors(database).items():
        for sighting in range(3):
            result = executor.execute_sql(sql)
            assert result.column("r") == _EXPECTED[(connector, subquery)], (name, sighting)


@pytest.mark.parametrize(
    "condition, expected",
    [
        ("null in (select s.w from S s where s.id = 0)", []),
        ("null not in (select s.w from S s where s.id = 0)", [1]),
        ("null in (select s.w from S s)", []),
        ("null not in (select s.w from S s)", []),
        ("null not in (select s.w from S s where s.w is not null)", []),
    ],
)
def test_null_operand_against_subqueries(condition, expected):
    database = _in_database()
    sql = f"select t.id from T t where t.id = 1 and {condition}"
    for name, executor in _executors(database).items():
        for sighting in range(3):
            assert executor.execute_sql(sql).column("t.id") == expected, (name, sighting)


def test_null_not_in_empty_subquery_keeps_the_row():
    database = movie_database()
    sql = (
        "select m.title from MOVIES m where m.id = 1 and null not in "
        "(select g.mid from GENRE g where g.genre = 'no-such-genre')"
    )
    for name, executor in _executors(database).items():
        assert executor.execute_sql(sql).row_count == 1, name


# ---------------------------------------------------------------------------
# Differential: generated data and queries, every compiled form vs oracle
# ---------------------------------------------------------------------------


def _schema():
    return (
        SchemaBuilder("decorrelation")
        .relation("O")
        .column("id", "integer", primary_key=True)
        .column("a", "float")
        .column("b", "float")
        .done()
        .relation("I")
        .column("id", "integer", primary_key=True)
        .column("a", "float")
        .column("b", "float")
        .column("c", "float")
        .done()
        .relation("J")
        .column("id", "integer", primary_key=True)
        .column("iid", "integer")
        .column("b", "float")
        .done()
        .relation("X")
        .column("id", "integer", primary_key=True)
        .column("b", "float")
        .column("c", "float")
        .done()
        .build(require_primary_keys=True)
    )


_SCHEMA = _schema()

# NULLs, duplicates and an int/float-equal pair (1 and 1.0); 0 makes
# `10 / i.c` raise on some rows only.
values = st.sampled_from([None, 0, 1, 1.0, 2, 3])


def _table(columns, max_size):
    return st.lists(st.tuples(*([values] * columns)), max_size=max_size)


data = st.fixed_dictionaries(
    {
        "O": _table(2, 7),
        "I": _table(3, 10),
        "J": st.lists(st.tuples(st.integers(0, 9), values), max_size=8),
        "X": _table(2, 5),
    }
)


def _database(rows) -> Database:
    database = Database(_SCHEMA)
    for ident, (a, b) in enumerate(rows["O"]):
        database.insert("O", {"id": ident, "a": a, "b": b})
    for ident, (a, b, c) in enumerate(rows["I"]):
        database.insert("I", {"id": ident, "a": a, "b": b, "c": c})
    for ident, (iid, b) in enumerate(rows["J"]):
        database.insert("J", {"id": ident, "iid": iid, "b": b})
    for ident, (b, c) in enumerate(rows["X"]):
        database.insert("X", {"id": ident, "b": b, "c": c})
    return database


# Inner blocks: (FROM + WHERE, the column a value connector selects).
# `{f}` is the block's literal slot; every literal rotates between the
# texts of one shape, so a table shared across literal variants shows.
_BLOCKS = {
    "single": ("I i where i.a = o.a{F}", "i.b"),
    "two_links": ("I i where i.a = o.a and i.b = o.b{F}", "i.c"),
    "same_outer": ("I i, I i2 where i.a = o.a and i2.a = o.a and i.id <> i2.id{F}", "i.b"),
    "two_tables": ("I i, J j where j.iid = i.id and i.a = o.a{F}", "j.b"),
    "cross": ("I i, X x where i.a = o.a and x.b = o.b{F}", "x.c"),
    "shadowed": (
        "I i where i.a = o.a and exists (select * from O o where o.id = i.id){F}",
        "i.b",
    ),
    "unqualified": ("I i where i.a = o.a and c >= 0{F}", "i.b"),
    "uncorrelated": ("I i where i.c >= 0{F}", "i.b"),
    "inequality": ("I i where i.a < o.a{F}", "i.b"),
}

_FILTERS = ["", " and i.c > {f}", " and 10 / i.c > {f}"]

_CONNECTORS = [
    "exists (select * from {B})",
    "not exists (select * from {B})",
    "o.b in (select {V} from {B})",
    "o.b not in (select {V} from {B})",
    "o.b = any (select {V} from {B})",
    "o.b <= all (select {V} from {B})",
    "o.b = (select {V} from {B})",
    "o.b < (select count(*) from {B})",
]

# Memoized, not decorrelated: the select list reads the outer row.
_CONNECTORS_READING_OUTER = [
    "o.b = (select o.a from {B} limit 1)",
    "o.a in (select o.a + i.c from {B})",
]

_OUTER = ["o.id = {k}", "o.id >= {k}"]

_INNER_DIVISION = [
    "I i where i.a = o.a and i.b = x.b{F}",
    "I i, J j where j.iid = i.id and i.a = o.a and j.b = x.b{F}",
]

_DIVISORS = ["", "x.c > {f} and ", "x.c <> 1 and "]


def _one_level(outer, connector, block, flt):
    body, value = _BLOCKS[block]
    body = body.replace("{F}", _FILTERS[flt])
    condition = connector.replace("{B}", body).replace("{V}", value)
    return f"select o.id from O o where {_OUTER[outer]} and {condition}"


def _division(outer, negations, divisor, inner, flt):
    first, second = ("not " if negated else "" for negated in negations)
    body = _INNER_DIVISION[inner].replace("{F}", _FILTERS[flt])
    return (
        f"select o.id from O o where {_OUTER[outer]} and {first}exists ("
        f"select * from X x where {_DIVISORS[divisor]}{second}exists ("
        f"select * from {body}))"
    )


def _text(template: str, k: int, f: int) -> str:
    return template.replace("{k}", str(k)).replace("{f}", str(f))


def _check_against_oracle(rows, template, k, f):
    database = _database(rows)
    target = _text(template, k, f)
    reference = oracle(database)

    first = compiled(database)
    shared = compiled(database)
    pinned = compiled(database, parameterised=False)
    # Admission: two sightings of rotated literals compile the shape plan
    # with *their* literals, so the target is a rebind of that plan.
    for rotation in (1, 2):
        outcome(shared, _text(template, k + rotation, f + rotation))

    def compare(stage):
        expected = outcome(reference, target)
        for name, executor in (("shared", shared), ("pinned", pinned)):
            for sighting in range(2):
                got = outcome(executor, target)
                assert got == expected, (stage, name, sighting, target)
        return expected

    expected = compare("before DML")
    assert outcome(first, target) == expected, ("first sighting", target)
    # Tables and memo entries are data-dependent: both mutations must
    # reach every compiled form (and the admitted statement's tables).
    pinned.execute_sql("insert into I (id, a, b, c) values (100, 1, 2, 3)")
    compare("after INSERT")
    shared.execute_sql("delete from O where id = 0")
    compare("after DELETE")


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=data,
    outer=st.integers(0, len(_OUTER) - 1),
    connector=st.sampled_from(_CONNECTORS),
    block=st.sampled_from(sorted(_BLOCKS)),
    flt=st.integers(0, len(_FILTERS) - 1),
    k=st.integers(0, 3),
    f=st.integers(0, 2),
)
def test_one_level_subqueries_match_the_oracle(rows, outer, connector, block, flt, k, f):
    _check_against_oracle(rows, _one_level(outer, connector, block, flt), k, f)


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=data,
    outer=st.integers(0, len(_OUTER) - 1),
    negations=st.tuples(st.booleans(), st.booleans()),
    divisor=st.integers(0, len(_DIVISORS) - 1),
    inner=st.integers(0, len(_INNER_DIVISION) - 1),
    flt=st.integers(0, len(_FILTERS) - 1),
    k=st.integers(0, 3),
    f=st.integers(0, 2),
)
def test_division_matches_the_oracle(rows, outer, negations, divisor, inner, flt, k, f):
    _check_against_oracle(rows, _division(outer, negations, divisor, inner, flt), k, f)


# Every template once over fixed data that holds each edge together: NULL
# keys on both sides, int/float-equal keys, duplicates, an outer key
# (a = 2) whose inner rows cover every divisor value, a divisor row with
# a NULL key, and a `10 / i.c` row (c = 0) no outer row reaches.
_EDGES = {
    "O": [(1, 1), (None, 2), (1.0, None), (2, 3), (3, 1), (None, None), (2, 2)],
    "I": [
        (1, 1, 1),
        (1, None, 2),
        (None, 2, 3),
        (2, 3, 2),
        (2, 2, 1),
        (2, 1, 1),
        (1.0, 1, 3),
        (9, 1, 0),
        (3, None, None),
    ],
    "J": [(0, 1), (0, 2), (1, None), (3, 3), (4, 2), (7, 1), (5, 2)],
    "X": [(1, 1), (2, 2), (3, 3), (None, 2)],
}
_EDGES_NO_NULL_DIVISOR = {**_EDGES, "X": [(1, 1), (2, 2), (1.0, 3)]}


def _check_edges(rows, template):
    database = _database(rows)
    target = _text(template, 0, 1)
    expected = outcome(oracle(database), target)
    executor = compiled(database)
    for rotation in (1, 2):
        outcome(executor, _text(template, rotation, 1 + rotation))
    for sighting in range(2):
        assert outcome(executor, target) == expected, (sighting, target)


@pytest.mark.parametrize("block", sorted(_BLOCKS))
@pytest.mark.parametrize("connector", _CONNECTORS + _CONNECTORS_READING_OUTER)
def test_one_level_edges_match_the_oracle(connector, block):
    for outer in range(len(_OUTER)):
        for flt in range(len(_FILTERS)):
            _check_edges(_EDGES, _one_level(outer, connector, block, flt))


@pytest.mark.parametrize("rows", [_EDGES, _EDGES_NO_NULL_DIVISOR], ids=["null", "no_null"])
@pytest.mark.parametrize("negations", [(a, b) for a in (False, True) for b in (False, True)])
def test_division_edges_match_the_oracle(rows, negations):
    for outer in range(len(_OUTER)):
        for divisor in range(len(_DIVISORS)):
            for inner in range(len(_INNER_DIVISION)):
                for flt in range(len(_FILTERS)):
                    _check_edges(rows, _division(outer, negations, divisor, inner, flt))


def test_int_and_equal_float_outer_values_keep_their_own_memo_entries():
    # 1 and 1.0 are equal keys, but a subquery that reads the outer value
    # returns each row its own one.
    keyed = _database({"O": [(1, 0), (1.0, 0)], "I": [(0, 0, 0)], "J": [], "X": []})
    # Without a primary key two outer rows can differ only in that type.
    keyless = Database(
        SchemaBuilder("keyless")
        .relation("P")
        .column("a", "float")
        .done()
        .relation("Q")
        .column("c", "integer")
        .done()
        .build()
    )
    keyless.insert("P", {"a": 1})
    keyless.insert("P", {"a": 1.0})
    keyless.insert("Q", {"c": 0})
    for database, sql in (
        # Memoized on the outer columns o.a and o.b.
        (keyed, "select o.id, (select o.a from I i where i.b = o.b) as v from O o"),
        # An unqualified column: memoized on the whole outer row.
        (keyless, "select p.a, (select p.a from Q q where c = 0) as v from P p"),
    ):
        expected = outcome(oracle(database), sql)
        assert [dict(row)["v"] for row in expected[2]] == ["1", "1.0"]
        for executor in (compiled(database), compiled(database, parameterised=False)):
            for _ in range(3):
                assert outcome(executor, sql) == expected


# ---------------------------------------------------------------------------
# Counters: which path answered
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def movies():
    return generate_movie_database(GeneratorConfig(movies=60, directors=6, actors=15))


def test_one_row_outer_query_builds_no_table(movies):
    executor = compiled(movies)
    expected = oracle(movies).execute_sql(SELECTIVE).rows
    for _ in range(3):  # first sighting, admission, shape-plan hit
        assert executor.execute_sql(SELECTIVE).rows == expected
    assert executor.cache_stats["subquery"]["tables"] == 0
    # The same subquery under a many-row outer query does build.
    many = SELECTIVE.replace("m.id = 7", "m.id > 7")
    assert executor.execute_sql(many).rows == oracle(movies).execute_sql(many).rows
    assert executor.cache_stats["subquery"]["tables"] == 1


def test_q6_builds_each_of_its_tables_once_per_execution():
    database = movie_database()
    executor = compiled(database)
    reference = oracle(database)
    q6 = PAPER_QUERIES["Q6"]

    def run():
        assert executor.execute_sql(q6).rows == reference.execute_sql(q6).rows
        return executor.cache_stats["subquery"]

    # The inner block's table and the division's sets: two per execution.
    assert run()["tables"] == 2  # first sighting, private scope
    admitted = run()
    assert admitted["tables"] == 4  # admission: the shared scope builds its own
    movies = database.table("MOVIES").row_count
    hit = run()
    # The admitted statement's tables survive: one hit per movie, no miss.
    assert hit["tables"] == 4
    assert hit["misses"] == admitted["misses"]
    assert hit["hits"] - admitted["hits"] == movies
    executor.execute_sql("insert into GENRE (mid, genre) values (1, 'western')")
    assert run()["tables"] == 6  # the insert dropped them; rebuilt once each


def test_links_on_one_outer_column_become_an_inner_join(movies):
    # Q9's `m1.title = m.title and m2.title = m.title` hash on m1.title
    # with `m1.title = m2.title` inside the block, not a cross product.
    executor = compiled(movies)
    q9 = PAPER_QUERIES["Q9"]
    assert executor.execute_sql(q9).rows == oracle(movies).execute_sql(q9).rows
    assert executor.cache_stats["subquery"]["tables"] == 1


def test_literal_variants_never_share_a_table(movies):
    executor = compiled(movies)
    reference = oracle(movies)
    template = (
        "select m.title from MOVIES m where m.id > 3 and exists "
        "(select * from GENRE g where g.mid = m.id and g.genre = '{}')"
    )
    genres = ["action", "drama", "comedy", "action", "drama"]
    for genre in genres:
        sql = template.format(genre)
        assert executor.execute_sql(sql).rows == reference.execute_sql(sql).rows
    # First sighting, then one table per distinct literal vector in the
    # shared scope; repeats are answered from theirs.
    assert executor.cache_stats["subquery"]["tables"] == 4


def test_build_error_hands_back_to_the_per_key_path():
    rows = {
        "O": [(1, 1), (2, 2), (1, 3), (2, 1)],
        # c = 0 raises in `10 / i.c`, but only for a = 9, which no outer
        # row reaches: the per-row oracle never evaluates it.
        "I": [(1, 1, 1), (2, 2, 2), (9, 1, 0), (1, 3, 5)],
        "J": [],
        "X": [],
    }
    database = _database(rows)
    sql = (
        "select o.id from O o where o.id >= 0 and "
        "exists (select * from I i where i.a = o.a and 10 / i.c > 1)"
    )
    expected = outcome(oracle(database), sql)
    assert expected[0] == "rows"
    executor = compiled(database)
    for _ in range(3):
        assert outcome(executor, sql) == expected
    assert executor.cache_stats["subquery"]["tables"] == 0


@pytest.mark.parametrize(
    "subquery",
    [
        # A nested block rebinds the outer alias `m`.
        "select * from DIRECTED d where d.mid = m.id and "
        "exists (select * from MOVIES m where m.id = d.mid)",
        # An unqualified column.
        "select * from CAST c where c.mid = m.id and role <> 'x'",
        # A binding spelled in another case than its FROM entry.
        "select * from CAST c where C.mid = m.id",
    ],
)
def test_shadowed_or_unqualified_subqueries_stay_per_row(movies, subquery):
    sql = f"select m.title from MOVIES m where exists ({subquery})"
    executor = compiled(movies)
    expected = oracle(movies).execute_sql(sql).rows
    for _ in range(3):
        assert executor.execute_sql(sql).rows == expected
    # The subquery itself is memoized on the whole outer row, never
    # decorrelated (a nested block that shadows nothing of its own may be).
    statement = parse_select(sql).where.subquery
    assert executor_module._analyze_subquery(statement, movies.schema).mode == "row"


def test_table_rows_count_toward_the_memo_bound(monkeypatch):
    database = movie_database()
    # CAST and GENRE each hold more rows than the bound: their tables are
    # never kept, so those statements stay on the per-key path.
    bound = database.table("CAST").row_count - 2
    monkeypatch.setattr(executor_module, "_SUBQUERY_MEMO_LIMIT", bound)
    executor = compiled(database)
    reference = oracle(database)
    many = SELECTIVE.replace("m.id = 7", "m.id > 0")
    for sql in (*(PAPER_QUERIES[name] for name in ("Q5", "Q6", "Q7", "Q9")), many):
        for _ in range(3):
            assert executor.execute_sql(sql).rows == reference.execute_sql(sql).rows
            assert executor.cache_stats["subquery"]["entries"] <= bound
