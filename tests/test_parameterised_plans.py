"""Tests for parameterised (shape-shared) execution plans.

Four concerns: (1) shape plans return results identical to pinned
plans (``parameterised=False``, every literal pinned) and the
interpreted oracle on the full corpus — with randomised literal rotation
so every execution is a genuine shape hit; (2) value-driven plan choices
split on the guard vector (pinned select literals, LIMIT/OFFSET,
int-vs-float tags) instead of leaking one query's values into another's
answer; (3) data caches invalidate under DML and direct storage
mutation; and (4) the concurrent service's execution is byte-identical
to sequential synchronous execution under 64 clients.

A shape's plan is compiled on its second sighting (the first runs
uncompiled), so tests about shared plans send each shape once first.
"""

import asyncio
import random

import pytest

from repro.datasets import PAPER_QUERIES, generate_workload, movie_database
from repro.engine import Executor
from repro.engine import executor as executor_module
from repro.engine.parameterised import analyze_statement, source_literals
from repro.oracle import oracle_enabled
from repro.service import NarrationService
from repro.sql.parser import parse_sql
from repro.sql.shape import reconstruct_sql, sql_shape


def interpreted(database) -> Executor:
    return Executor(database, compiled=False)


def pinned(database) -> Executor:
    return Executor(database, compiled=True, parameterised=False)


def parameterised(database) -> Executor:
    return Executor(database, compiled=True, parameterised=True)


@pytest.fixture()
def db():
    return movie_database()


def corpus():
    return list(PAPER_QUERIES.values()) + [
        q.sql for q in generate_workload(queries_per_category=10, seed=42)
    ]


_WORDS = [
    "Brad Pitt",
    "Mark Hamill",
    "action",
    "comedy",
    "Zelda",
    "a b c",
    "O'Neill",
    "",
]


def _mutate_literals(literals, rng):
    """A literal vector of the same length with rotated values."""
    mutated = []
    for value in literals:
        if isinstance(value, str):
            mutated.append(rng.choice(_WORDS))
        elif isinstance(value, float):
            mutated.append(round(rng.uniform(-5, 2010), 2))
        else:
            mutated.append(rng.randint(0, 2010))
    return mutated


def _variants(sql, rng, count=3):
    """Literal-rotated texts of ``sql``'s shape (includes the original)."""
    shaped = sql_shape(sql)
    if shaped is None or not shaped[1]:
        return [sql]
    shape, literals = shaped
    texts = [sql]
    for _ in range(count):
        texts.append(reconstruct_sql(shape, _mutate_literals(literals, rng)))
    return texts


# ---------------------------------------------------------------------------
# Equivalence: shape plans == pinned plans == interpreted
# ---------------------------------------------------------------------------


def assert_same(a, b, context):
    assert a.columns == b.columns, context
    assert a.rows == b.rows, context


def test_corpus_equivalence_with_literal_rotation(db):
    rng = random.Random(20260728)
    param = parameterised(db)
    text_oracle = pinned(db)
    slow = interpreted(db)
    for sql in corpus():
        for variant in _variants(sql, rng):
            try:
                expected = slow.execute_sql(variant)
            except Exception as error:
                # A rotated literal may make a variant invalid (e.g. a
                # LIMIT that the reconstruction turned negative is fine,
                # but comparisons of str vs int raise); the fast paths
                # must then raise the same error class.
                with pytest.raises(type(error)):
                    param.execute_sql(variant)
                continue
            assert_same(param.execute_sql(variant), expected, variant)
            assert_same(text_oracle.execute_sql(variant), expected, variant)
    stats = param.cache_stats["shape_plans"]
    assert stats["hits"] > 0 and stats["misses"] > 0


def test_repeated_shape_is_served_from_the_shape_cache(db, monkeypatch):
    executor = parameterised(db)
    executor.execute_sql("select m.title from MOVIES m where m.year = 2010")  # first sighting
    executor.execute_sql("select m.title from MOVIES m where m.year = 2004")
    variant = "select m.title from MOVIES m where m.year = 1997"
    expected = interpreted(db).execute_sql(variant)
    before = executor.cache_stats
    calls = []
    monkeypatch.setattr(executor_module, "parse_sql", calls.append)
    monkeypatch.setattr(executor.planner, "plan", calls.append)
    result = executor.execute_sql(variant)
    after = executor.cache_stats
    assert after["shape_plans"]["hits"] == before["shape_plans"]["hits"] + 1
    # The variant was neither parsed nor planned.
    assert calls == []
    assert_same(result, expected, variant)


def test_index_probe_resolves_key_from_parameters(db):
    executor = parameterised(db)
    executor.execute_sql("select a.id from ACTOR a where a.name = 'Zelda'")  # first sighting
    a = executor.execute_sql("select a.id from ACTOR a where a.name = 'Brad Pitt'")
    b = executor.execute_sql("select a.id from ACTOR a where a.name = 'Mark Hamill'")
    assert executor.cache_stats["shape_plans"]["hits"] == 1
    oracle = interpreted(db)
    assert_same(a, oracle.execute_sql("select a.id from ACTOR a where a.name = 'Brad Pitt'"), "a")
    assert_same(b, oracle.execute_sql("select a.id from ACTOR a where a.name = 'Mark Hamill'"), "b")
    assert a.rows != b.rows


def test_correlated_subquery_memo_keys_on_parameters(db):
    executor = parameterised(db)
    q5 = PAPER_QUERIES["Q5"]
    executor.execute_sql(q5)  # first sighting
    first = executor.execute_sql(q5)
    variant = q5.replace("Brad Pitt", "Mark Hamill")
    second = executor.execute_sql(variant)
    oracle = interpreted(db)
    assert_same(first, oracle.execute_sql(q5), "Q5")
    assert_same(second, oracle.execute_sql(variant), "Q5 variant")
    assert first.rows != second.rows


# ---------------------------------------------------------------------------
# Guard splits: value-driven plan choices keep distinct entries
# ---------------------------------------------------------------------------


def test_select_list_literals_are_pinned(db):
    executor = parameterised(db)
    executor.execute_sql("select 1 from MOVIES m")  # first sighting
    a = executor.execute_sql("select 1 from MOVIES m")
    b = executor.execute_sql("select 2 from MOVIES m")
    assert a.columns == ("1",) and b.columns == ("2",)
    assert all(row.get("1") == 1 for row in a.rows)
    assert all(row.get("2") == 2 for row in b.rows)
    # Same shape, two guard classes, zero shared-plan hits.
    stats = executor.cache_stats["shape_plans"]
    assert stats["shapes"] == 1 and stats["entries"] == 2 and stats["hits"] == 0


def test_aliased_select_literals_are_parameters(db):
    executor = parameterised(db)
    executor.execute_sql("select m.year + 30 as later from MOVIES m where m.id = 1")  # first sighting
    a = executor.execute_sql("select m.year + 10 as later from MOVIES m where m.id = 1")
    b = executor.execute_sql("select m.year + 20 as later from MOVIES m where m.id = 1")
    assert a.columns == b.columns == ("later",)
    assert b.rows[0].get("later") == a.rows[0].get("later") + 10
    assert executor.cache_stats["shape_plans"]["hits"] == 1


def test_limit_and_offset_are_pinned(db):
    executor = parameterised(db)
    executor.execute_sql("select m.title from MOVIES m limit 5")  # first sighting
    executor.execute_sql("select m.title from MOVIES m limit 5 offset 3")  # first sighting
    a = executor.execute_sql("select m.title from MOVIES m limit 2")
    b = executor.execute_sql("select m.title from MOVIES m limit 3")
    c = executor.execute_sql("select m.title from MOVIES m limit 2 offset 1")
    assert len(a.rows) == 2 and len(b.rows) == 3 and len(c.rows) == 2
    assert c.rows[0] == a.rows[1]
    assert executor.cache_stats["shape_plans"]["hits"] == 0


def test_int_and_float_literals_split_on_the_type_tag(db):
    executor = parameterised(db)
    executor.execute_sql("select m.title from MOVIES m where m.year = 1995")  # first sighting
    a = executor.execute_sql("select m.title from MOVIES m where m.year = 2004")
    b = executor.execute_sql("select m.title from MOVIES m where m.year = 2004.5")
    oracle = interpreted(db)
    assert_same(a, oracle.execute_sql("select m.title from MOVIES m where m.year = 2004"), "int")
    assert_same(b, oracle.execute_sql("select m.title from MOVIES m where m.year = 2004.5"), "float")
    assert executor.cache_stats["shape_plans"]["entries"] == 2


def test_like_patterns_are_parameters(db):
    executor = parameterised(db)
    executor.execute_sql("select m.title from MOVIES m where m.title like 'T%'")  # first sighting
    a = executor.execute_sql("select m.title from MOVIES m where m.title like '%o%'")
    b = executor.execute_sql("select m.title from MOVIES m where m.title like 'Se%'")
    oracle = interpreted(db)
    assert_same(a, oracle.execute_sql("select m.title from MOVIES m where m.title like '%o%'"), "a")
    assert_same(b, oracle.execute_sql("select m.title from MOVIES m where m.title like 'Se%'"), "b")
    assert executor.cache_stats["shape_plans"]["hits"] == 1


def test_in_list_values_are_parameters(db):
    executor = parameterised(db)
    sql = "select m.title from MOVIES m where m.year in (2004, 1995)"
    variant = "select m.title from MOVIES m where m.year in (1977, 1999)"
    oracle = interpreted(db)
    executor.execute_sql(sql)  # first sighting
    assert_same(executor.execute_sql(sql), oracle.execute_sql(sql), sql)
    assert_same(executor.execute_sql(variant), oracle.execute_sql(variant), variant)
    assert executor.cache_stats["shape_plans"]["hits"] == 1


def test_duplicate_literals_keep_distinct_slots(db):
    executor = parameterised(db)
    base = "select m.title from MOVIES m where m.year = 2004 or m.year = 2004"
    variant = "select m.title from MOVIES m where m.year = 1977 or m.year = 2004"
    oracle = interpreted(db)
    executor.execute_sql(base)  # first sighting
    assert_same(executor.execute_sql(base), oracle.execute_sql(base), base)
    assert_same(executor.execute_sql(variant), oracle.execute_sql(variant), variant)
    assert executor.cache_stats["shape_plans"]["hits"] == 1


def test_between_bounds_keep_their_positions(db):
    executor = parameterised(db)
    base = "select m.title from MOVIES m where m.year between 2000 and 2000"
    variant = "select m.title from MOVIES m where m.year between 1990 and 2005"
    oracle = interpreted(db)
    executor.execute_sql(base)  # first sighting
    assert_same(executor.execute_sql(base), oracle.execute_sql(base), base)
    assert_same(executor.execute_sql(variant), oracle.execute_sql(variant), variant)
    assert executor.cache_stats["shape_plans"]["hits"] == 1


# ---------------------------------------------------------------------------
# DML and shapes the analysis refuses
# ---------------------------------------------------------------------------


def test_dml_is_parsed_and_run_directly(db):
    executor = parameterised(db)
    result = executor.execute_sql(
        "insert into MOVIES (id, title, year) values (999, 'Fallback', 2001)"
    )
    assert result.affected_rows == 1
    assert executor.cache_stats["shape_plans"]["fallbacks"] == 1
    assert executor.cache_stats["shape_plans"]["entries"] == 0


def test_subquery_limit_pins_every_literal(db):
    # The inner LIMIT integer is a literal token that never becomes an
    # expression node, leaving a mid-vector hole the analysis rejects:
    # the shape's plans have zero free parameters.
    executor = parameterised(db)
    oracle = interpreted(db)
    sql = (
        "select m.title from MOVIES m where m.id in"
        " (select c.mid from CAST c where c.mid > {low} limit 3)"
    )
    expected = [(1, 1, 0), (2, 1, 0), (2, 1, 1)]  # (misses, deferred, hits)
    for sighting, counts in enumerate(expected):
        text = sql.format(low=0)
        assert_same(executor.execute_sql(text), oracle.execute_sql(text), sighting)
        stats = executor.cache_stats["shape_plans"]
        assert (stats["misses"], stats["deferred"], stats["hits"]) == counts
    # Another literal vector gets its own plan, never the first one's.
    text = sql.format(low=5)
    assert_same(executor.execute_sql(text), oracle.execute_sql(text), text)
    stats = executor.cache_stats["shape_plans"]
    assert stats["misses"] == 3 and stats["entries"] == 2
    assert stats["fallbacks"] == 0


def test_dml_keeps_no_shape_state(db):
    executor = parameterised(db)
    executor.execute_sql("delete from MOVIES where id = 12345")
    executor.execute_sql("delete from MOVIES where id = 54321")
    stats = executor.cache_stats["shape_plans"]
    assert stats["fallbacks"] == 2 and stats["shapes"] == 0


def test_analysis_rejects_non_select_and_misaligned_statements(db):
    statement = parse_sql("insert into MOVIES (id, title, year) values (1, 'x', 2)")
    assert analyze_statement(statement, (1, "x", 2)) is None
    select = parse_sql("select m.title from MOVIES m where m.year = 2004")
    assert [node.value for node in source_literals(select)] == [2004]
    assert analyze_statement(select, (2004,)) is not None
    assert analyze_statement(select, (1999,)) is None  # literal mismatch
    assert analyze_statement(select, (2004, 7)) is None  # phantom hole


# ---------------------------------------------------------------------------
# Cache invalidation under DML and direct storage mutation
# ---------------------------------------------------------------------------


def test_dml_invalidates_shared_plan_data_caches(db):
    executor = parameterised(db)
    sql = "select m.title from MOVIES m where m.year = 1899"
    executor.execute_sql(sql)  # first sighting
    assert executor.execute_sql(sql).row_count == 0
    executor.execute_sql(
        "insert into MOVIES (id, title, year) values (998, 'Cache Buster', 1899)"
    )
    after = executor.execute_sql(sql)
    assert [row.get("m.title") for row in after.rows] == ["Cache Buster"]
    # The shared plan survived the mutation (plans are data-independent);
    # only the data caches were rebuilt.
    assert executor.cache_stats["shape_plans"]["hits"] >= 1


def test_direct_storage_mutation_is_seen_by_shared_plans(db):
    executor = parameterised(db)
    sql = "select m.title from MOVIES m where m.year = 1898"
    executor.execute_sql(sql)  # first sighting
    assert executor.execute_sql(sql).row_count == 0
    db.insert("MOVIES", {"id": 997, "title": "Bypass", "year": 1898})
    after = executor.execute_sql(sql)
    assert [row.get("m.title") for row in after.rows] == ["Bypass"]


def test_update_through_variant_shapes(db):
    executor = parameterised(db)
    oracle_db = movie_database()
    oracle = interpreted(oracle_db)
    probe = "select m.title from MOVIES m where m.year = 2004"
    executor.execute_sql(probe)
    for sql in (
        "update MOVIES set year = 2004 where id = 3",
        "update MOVIES set year = 1955 where id = 1",
    ):
        executor.execute_sql(sql)
        oracle.execute_sql(sql)
        for variant in (probe, probe.replace("2004", "1955")):
            assert_same(executor.execute_sql(variant), oracle.execute_sql(variant), variant)


def test_invalidate_caches_drops_shape_state(db):
    executor = parameterised(db)
    sql = "select m.title from MOVIES m where m.year = 2004"
    executor.execute_sql(sql)  # first sighting
    executor.execute_sql(sql)
    stats = executor.cache_stats["shape_plans"]
    assert stats["entries"] == 1 and stats["shapes"] == 1
    executor.invalidate_caches()
    stats = executor.cache_stats["shape_plans"]
    assert stats["entries"] == 0 and stats["shapes"] == 0
    # Sightings are dropped too: the shape is a first sighting again.
    executor.execute_sql(sql)
    assert executor.cache_stats["shape_plans"]["deferred"] == stats["deferred"] + 1


# ---------------------------------------------------------------------------
# Service-tier concurrent execution
# ---------------------------------------------------------------------------


def test_service_shape_batched_execution_matches_sequential_sync(db):
    rng = random.Random(7)
    queries = []
    for sql in corpus():
        queries.extend(_variants(sql, rng, count=1))
    # Sequential synchronous reference on an identical database.
    reference_executor = pinned(movie_database())
    expected = {}
    for sql in queries:
        result = reference_executor.execute_sql(sql)
        expected[sql] = (result.columns, result.rows)

    async def run():
        async with NarrationService() as service:
            session = service.session(database=db)

            async def client(worker: int):
                results = {}
                for index in range(worker, len(queries), 64):
                    sql = queries[index]
                    result = await session.execute(sql)
                    results[sql] = (result.columns, result.rows)
                return results

            gathered = await asyncio.gather(*(client(i) for i in range(64)))
            return gathered, session.stats()

    gathered, stats = asyncio.run(run())
    for results in gathered:
        for sql, got in results.items():
            assert got == expected[sql], sql
    if not oracle_enabled():  # oracle mode runs the interpreted executor
        assert stats["executor"]["shape_plans"]["hits"] > 0


def test_service_groups_interleaved_reads_and_writes_in_order(db):
    async def run():
        async with NarrationService() as service:
            session = service.session(database=db)
            read = "select m.title from MOVIES m where m.year = 1897"
            write = "insert into MOVIES (id, title, year) values (996, 'Barrier', 1897)"
            await session.execute(read)  # first sighting
            before, _, after = await asyncio.gather(
                session.execute(read), session.execute(write), session.execute(read)
            )
            return before, after

    before, after = asyncio.run(run())
    # Whatever the interleaving, the post-write read must see the row.
    assert [row.get("m.title") for row in after.rows] == ["Barrier"]
