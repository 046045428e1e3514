"""Join planning checked against a reference that does not plan.

The compiled executor and its ``compiled=False`` oracle run one plan, so
their differentials cannot see a planner defect: a join order or access
path that loses or adds rows.  These tests compare both with a
planner-free evaluation, the product of the FROM tables in FROM order
filtered by the whole WHERE, on small generated databases, and pin the
cases where an index join must act like the hash join it replaces.
"""

from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.builder import SchemaBuilder
from repro.datasets import movie_database
from repro.engine import Executor
from repro.engine.evaluator import ExpressionEvaluator
from repro.errors import ReproError
from repro.sql.parser import parse_select
from repro.storage.database import Database
from repro.storage.row import Row

# ---------------------------------------------------------------------------
# A small schema whose join columns mix INTEGER, FLOAT and BOOLEAN, so that
# keys equal in Python (1, 1.0, TRUE) meet, and whose foreign keys are
# nullable.
# ---------------------------------------------------------------------------

COLUMNS = {
    "P": ("id", "name", "score"),
    "C": ("id", "pid", "tag"),
    "Q": ("id", "cid", "pid", "flag"),
}

#: Equi-join column pairs between two tables (either order).
EDGES = {
    ("P", "C"): [("id", "pid")],
    ("C", "Q"): [("id", "cid")],
    ("P", "Q"): [("id", "pid"), ("id", "flag")],
    ("P", "P"): [("id", "id"), ("score", "id")],
    ("C", "C"): [("pid", "pid"), ("id", "id")],
    ("Q", "Q"): [("cid", "cid"), ("flag", "pid")],
}

LITERALS = ["0", "1", "1.0", "TRUE", "FALSE", "NULL", "2", "'a'", "'x'"]


def small_schema():
    return (
        SchemaBuilder("joins")
        .relation("P")
        .column("id", "integer", primary_key=True)
        .column("name", "text", heading=True)
        .column("score", "float")
        .done()
        .relation("C")
        .column("id", "integer", primary_key=True)
        .column("pid", "float")
        .column("tag", "text", heading=True)
        .done()
        .relation("Q")
        .column("id", "integer", primary_key=True)
        .column("cid", "integer")
        .column("pid", "integer")
        .column("flag", "boolean", heading=True)
        .done()
        .foreign_key("C", ["pid"], "P", ["id"])
        .foreign_key("Q", ["cid"], "C", ["id"])
        .foreign_key("Q", ["pid"], "P", ["id"])
        .build()
    )


@st.composite
def databases(draw):
    """A database of the small schema whose foreign keys hold; any table may be empty."""
    database = Database(small_schema())
    p_ids = draw(st.lists(st.integers(0, 4), unique=True, min_size=1, max_size=5))
    for pid in p_ids:
        database.insert(
            "P",
            {
                "id": pid,
                "name": draw(st.sampled_from(["a", "b"])),
                "score": draw(st.sampled_from([None, 0, 1, 1.0, 2.5])),
            },
        )
    parents = [None] + p_ids + [float(pid) for pid in p_ids]
    c_ids = draw(st.lists(st.integers(0, 5), unique=True, max_size=6))
    for cid in c_ids:
        database.insert(
            "C",
            {
                "id": cid,
                "pid": draw(st.sampled_from(parents)),
                "tag": draw(st.sampled_from(["x", "y"])),
            },
        )
    for qid in draw(st.lists(st.integers(0, 6), unique=True, max_size=6)):
        database.insert(
            "Q",
            {
                "id": qid,
                "cid": draw(st.sampled_from([None] + c_ids)),
                "pid": draw(st.sampled_from([None] + p_ids)),
                "flag": draw(st.sampled_from([None, True, False])),
            },
        )
    return database


def _edges(left, right):
    if (left, right) in EDGES:
        return EDGES[(left, right)]
    return [(b, a) for a, b in EDGES.get((right, left), [])]


@st.composite
def queries(draw):
    """A join of 2-4 bindings (self-joins included) over the small schema."""
    tables = draw(st.lists(st.sampled_from(sorted(COLUMNS)), min_size=2, max_size=4))
    aliases = [f"t{i}" for i in range(len(tables))]
    bindings = st.integers(0, len(tables) - 1)
    where = []
    for i in range(1, len(tables)):
        j = draw(st.integers(0, i - 1))
        pairs = _edges(tables[j], tables[i])
        if pairs and draw(st.integers(0, 9)):  # mostly connected, sometimes a product
            a, b = draw(st.sampled_from(pairs))
            left, right = f"{aliases[j]}.{a}", f"{aliases[i]}.{b}"
            where.append(draw(st.sampled_from([f"{left} = {right}", f"{right} = {left}"])))
    if not draw(st.integers(0, 2)):
        # A second join condition, tested on the merged row.
        i, j = sorted(draw(st.lists(bindings, min_size=2, max_size=2, unique=True)))
        pairs = _edges(tables[i], tables[j])
        if pairs:
            a, b = draw(st.sampled_from(pairs))
            where.append(f"{aliases[i]}.{a} = {aliases[j]}.{b}")
    if draw(st.integers(0, 3)):
        k = draw(bindings)
        column = draw(st.sampled_from(COLUMNS[tables[k]]))
        where.append(f"{aliases[k]}.{column} = {draw(st.sampled_from(LITERALS))}")
    if not draw(st.integers(0, 3)):
        where.append(f"{aliases[draw(bindings)]}.id >= {draw(st.integers(0, 3))}")
    if not draw(st.integers(0, 2)):
        k = draw(bindings)
        column = draw(st.sampled_from(COLUMNS[tables[k]]))
        negated = "not " if draw(st.booleans()) else ""
        where.append(
            f"{negated}exists (select * from C x, Q y"
            f" where x.id = y.cid and x.pid = {aliases[k]}.{column})"
        )
    columns = [f"{a}.{c}" for a, t in zip(aliases, tables) for c in COLUMNS[t]]
    items = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3, unique=True))
    sql = "select " + ", ".join(items) + " from "
    sql += ", ".join(f"{t} {a}" for t, a in zip(tables, aliases))
    if where:
        sql += " where " + " and ".join(where)
    return sql


# ---------------------------------------------------------------------------
# The planner-free reference
# ---------------------------------------------------------------------------


def product_rows(database, statement, outer=None):
    """The FROM product in FROM order, filtered by the whole WHERE."""
    evaluator = ExpressionEvaluator(
        subquery_runner=lambda sub, row: product_rows(database, sub, row)
    )
    scans = [
        [
            {f"{table.binding}.{key}": value for key, value in row.raw.items()}
            for row in database.table(table.name).rows()
        ]
        for table in statement.from_tables
    ]
    found = []
    for parts in product(*scans):
        merged = {}
        for part in parts:
            merged.update(part)
        row = Row(merged)
        scoped = Row({**outer.raw, **merged}) if outer is not None else row
        if evaluator.matches(statement.where, scoped):
            found.append(row)
    return found


def reference_answer(database, sql):
    statement = parse_select(sql)
    evaluator = ExpressionEvaluator()
    return Counter(
        _typed(evaluator.evaluate(item.expression, row) for item in statement.select_items)
        for row in product_rows(database, statement)
    )


def _typed(values):
    """Values with their types, so 1, 1.0 and TRUE stay apart in a multiset."""
    return tuple((type(value).__name__, value) for value in values)


def outcome(executor, sql):
    """Columns and rows, printed, or the error: compared byte for byte."""
    try:
        result = executor.execute_sql(sql)
    except ReproError as error:
        return ("error", type(error).__name__, str(error))
    return ("ok", result.columns, repr([list(row.raw.items()) for row in result.rows]))


def answer(executor, sql):
    return Counter(_typed(row.raw.values()) for row in executor.execute_sql(sql).rows)


class TestAgainstTheFromProduct:
    @settings(max_examples=150, deadline=None)
    @given(database=databases(), sql=queries())
    def test_both_modes_match_the_product(self, database, sql):
        expected = reference_answer(database, sql)
        compiled = Executor(database, compiled=True)
        interpreted = Executor(database, compiled=False)
        assert answer(interpreted, sql) == expected
        # First sighting, admission and shape-plan hit all answer alike.
        for _ in range(3):
            assert outcome(compiled, sql) == outcome(interpreted, sql)
        assert answer(compiled, sql) == expected

    FIXED = [
        "select t0.name, t1.tag from P t0, C t1 where t0.id = t1.pid and t0.id = 1",
        "select t1.tag, t0.name from C t1, P t0 where t0.id = t1.pid and t0.id = 1.0",
        "select t0.id, t1.id from P t0, Q t1 where t0.id = t1.flag and t0.id = TRUE",
        "select t0.id, t1.id from C t0, C t1 where t0.pid = t1.pid and t0.tag = 'x'",
        "select t0.id, t2.id from P t0, C t1, Q t2"
        " where t0.id = t1.pid and t1.id = t2.cid and t2.flag = FALSE",
        "select t0.name from P t0, C t1 where t0.id = t1.pid and t0.name = 'b'"
        " and exists (select * from C x, Q y where x.id = y.cid and x.pid = t0.id)",
    ]

    @pytest.mark.parametrize("sql", FIXED)
    def test_fixed_index_joins_match_the_product(self, sql):
        database = Database(small_schema())
        for pid, score in ((0, None), (1, 1.0), (2, 1)):
            database.insert("P", {"id": pid, "name": "ab"[pid % 2], "score": score})
        for cid, pid in ((1, 1.0), (2, 1), (3, None), (4, 2), (5, 1)):
            database.insert("C", {"id": cid, "pid": pid, "tag": "xy"[cid % 2]})
        for qid, cid, flag in ((1, 1, True), (2, None, False), (3, 5, None), (4, 1, False)):
            database.insert("Q", {"id": qid, "cid": cid, "pid": 1, "flag": flag})
        compiled = Executor(database, compiled=True)
        assert "IndexJoin" in compiled.explain(parse_select(sql))
        expected = reference_answer(database, sql)
        assert expected  # each fixed query has answers
        assert answer(Executor(database, compiled=False), sql) == expected
        assert answer(compiled, sql) == expected


# ---------------------------------------------------------------------------
# Join keys the planner picks where the executor once read the data
# ---------------------------------------------------------------------------


class TestJoinKeysReadNoData:
    """Literal outcomes of joins whose hash key was once oriented by the data.

    The executor used to pick a hash join's key by sampling the first row
    of each input, in both modes; the planner now picks it from the schema.
    Both modes changed together, so their differential cannot see a drift:
    these pin what the sampling gave, in both modes, over three sightings.
    """

    MERGED_ROW = "['c.aid', 'c.mid', 'c.role', 'm.id', 'm.title', 'm.year']"

    JOINED_TITLES = repr(
        [
            [("m.title", title)]
            for title in (
                "Match Point", "Match Point", "Melinda and Melinda", "Anything Else",
                "Troy", "Troy", "Seven", "Seven", "Star Battles", "Star Battles",
                "Ocean Heist", "Ocean Heist",
            )
        ]
    )

    @staticmethod
    def outcomes(database, sql):
        found = []
        for compiled in (True, False):
            executor = Executor(database, compiled=compiled)
            found.extend(outcome(executor, sql) for _ in range(3))
        return found

    @pytest.mark.parametrize(
        "sql, column",
        [
            ("select m.title from MOVIES m, CAST c where m.nosuch = c.mid", "m.nosuch"),
            ("select m.title from MOVIES m, CAST c where m.id = c.nosuch", "c.nosuch"),
            # Hashed on the declared condition; the other raises on the
            # first merged row.
            (
                "select m.title from MOVIES m, CAST c where m.nosuch = c.mid and m.id = c.mid",
                "m.nosuch",
            ),
        ],
    )
    def test_undeclared_join_column_raises(self, sql, column):
        error = ("error", "EvaluationError", f"unknown column {column!r} in row {self.MERGED_ROW}")
        assert self.outcomes(movie_database(), sql) == [error] * 6

    def test_undeclared_join_column_over_an_empty_input_returns_no_rows(self):
        sql = "select m.title from MOVIES m, CAST c where m.nosuch = c.mid and c.role = 'nobody'"
        assert self.outcomes(movie_database(), sql) == [("ok", ("m.title",), "[]")] * 6

    def test_declared_condition_is_the_key_whatever_its_place(self):
        # No pair matches on the declared condition, so the undeclared one
        # is never evaluated: a nested loop would raise on the first pair.
        database = Database(small_schema())
        database.insert("P", {"id": 1, "name": "a", "score": None})
        database.insert("C", {"id": 1, "pid": None, "tag": "x"})
        sql = "select t0.name from P t0, C t1 where t0.nosuch = t1.pid and t0.id = t1.pid"
        assert "HashJoin" in Executor(database).explain(parse_select(sql))
        assert self.outcomes(database, sql) == [("ok", ("t0.name",), "[]")] * 6

    @pytest.mark.parametrize(
        "sql",
        [
            "select m.title from MOVIES m, CAST c where m.id = c.mid",
            "select m.title from MOVIES m, CAST c where c.mid = m.id",
            "select m.title from MOVIES m, CAST c where M.ID = c.MID",
        ],
    )
    def test_key_orientation_and_case_read_no_data(self, sql):
        assert self.outcomes(movie_database(), sql) == [
            ("ok", ("m.title",), self.JOINED_TITLES)
        ] * 6

    def test_unknown_table_under_limit_zero_returns_no_rows(self):
        sql = "select x from NOSUCH limit 0"
        assert self.outcomes(movie_database(), sql) == [("ok", ("x",), "[]")] * 6


# ---------------------------------------------------------------------------
# Where an index join must act like the hash join
# ---------------------------------------------------------------------------


class TestIndexJoinActsLikeHashJoin:
    """Compiled (index joins) and ``compiled=False`` (hash joins) agree exactly."""

    CASES = [
        # An unknown outer join column: the planner keeps the hash join,
        # whose nested-loop fallback raises the evaluator's error.
        "select m.title from MOVIES m, CAST c where m.id = 4 and m.nosuch = c.mid",
        # An unknown inner join column, and an unknown inner pushed column,
        # with and without outer rows.
        "select m.title from MOVIES m, CAST c where m.id = 4 and m.id = c.nosuch",
        "select m.title from MOVIES m, CAST c where m.id = 4 and m.id = c.mid and c.nosuch = 1",
        "select m.title from MOVIES m, CAST c"
        " where m.id = 987654 and m.id = c.mid and c.nosuch = 1",
        # An inner filter that raises: the inner input is not a bare scan,
        # so it is hashed in full, and raises, even with no outer rows.
        "select m.title from MOVIES m, CAST c where m.id = 987654 and m.id = c.mid and c.role > 5",
        "select m.title from MOVIES m, CAST c where m.id = 4 and m.id = c.mid and c.role > 5",
        # A pushed value that raises is evaluated once, as the scan's probe
        # would, even with no outer rows.
        "select m.title from MOVIES m, CAST c"
        " where m.id = 987654 and m.id = c.mid and c.aid = 1 / 0",
        # Pushed inner conjuncts, NULL and Python-equal probe values.
        "select m.title, c.role from MOVIES m, CAST c where m.id = 4 and m.id = c.mid and c.aid = 1",
        "select m.title from MOVIES m, CAST c where m.id = 4 and m.id = c.mid and c.aid = NULL",
        "select m.title, c.role from MOVIES m, CAST c where m.id = 4.0 and m.id = c.mid",
        "select m.title, c.role from MOVIES m, CAST c where m.id = TRUE and c.mid = m.id",
        # A remaining join condition tested on the merged row.
        "select m.title from MOVIES m, CAST c where m.id = 2 and m.id = c.mid and c.role = m.title",
        "select m.title from MOVIES m, CAST c where m.id = 4 and m.id = c.mid and c.role = m.title",
    ]

    @pytest.mark.parametrize("sql", CASES)
    def test_matches_the_hash_join(self, sql):
        database = movie_database()
        expected = outcome(Executor(database, compiled=False), sql)
        compiled = Executor(database, compiled=True)
        for _ in range(3):
            assert outcome(compiled, sql) == expected

    def test_unknown_outer_column_raises(self):
        sql = "select m.title from MOVIES m, CAST c where m.id = 4 and m.nosuch = c.mid"
        database = movie_database()
        assert "IndexJoin" not in Executor(database).explain(parse_select(sql))
        for compiled in (True, False):
            assert outcome(Executor(database, compiled=compiled), sql)[:2] == (
                "error",
                "EvaluationError",
            )

    def test_null_outer_key_matches_no_null_inner_key(self):
        database = Database(small_schema())
        database.insert("P", {"id": 1, "name": "a", "score": None})
        for qid in (1, 2, 3):
            database.insert("Q", {"id": qid, "cid": None, "pid": 1, "flag": None})
        sql = "select t0.id, t1.id from Q t0, Q t1 where t0.id = 1 and t0.cid = t1.cid"
        compiled = Executor(database, compiled=True)
        assert "IndexJoin" in compiled.explain(parse_select(sql))
        assert outcome(compiled, sql) == outcome(Executor(database, compiled=False), sql)
        assert compiled.execute_sql(sql).rows == []

    def test_rowid_order_after_update(self):
        database = movie_database()
        executor = Executor(database, compiled=True)
        sql = "select c.role from MOVIES m, CAST c where m.id = c.mid and m.id = 4"
        executor.execute_sql(sql)
        executor.execute_sql("update CAST set mid = 4 where mid = 1 and aid = 2")
        executor.execute_sql("insert into CAST (mid, aid, role) values (4, 3, 'Paris')")
        executor.execute_sql("update CAST set role = 'Prince Hector' where mid = 4 and aid = 4")
        roles = [row["c.role"] for row in executor.execute_sql(sql).rows]
        scan_order = [
            row["role"] for _, row in database.table("CAST").rows_with_ids() if row["mid"] == 4
        ]
        assert roles == scan_order == ["Achilles", "Nola Rice", "Prince Hector", "Paris"]
        assert outcome(executor, sql) == outcome(Executor(database, compiled=False), sql)

    @staticmethod
    def count_full_scans(database, table_name):
        table = database.table(table_name)
        calls = []
        original = table.rows

        def counted():
            calls.append(table_name)
            return original()

        table.rows = counted
        return calls

    @pytest.mark.parametrize("compiled, scans", [(True, 0), (False, 1)])
    @pytest.mark.parametrize(
        "sql, table_name",
        [
            (
                "select m.title, a.name, c.role from MOVIES m, CAST c, ACTOR a"
                " where m.id = c.mid and c.aid = a.id and m.id = 4",
                "CAST",
            ),
            (
                "select m.title, m.year, g.genre from MOVIES m, GENRE g"
                " where m.id = g.mid and m.id = 4",
                "GENRE",
            ),
        ],
    )
    def test_keyed_read_back_scans_no_inner_table(self, sql, table_name, compiled, scans):
        database = movie_database()
        executor = Executor(database, compiled=compiled)
        calls = self.count_full_scans(database, table_name)
        assert executor.execute_sql(sql).rows
        assert len(calls) == scans
