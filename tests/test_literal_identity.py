"""Literals that compare equal must never share an answer.

``1 == 1.0 == TRUE`` in Python, so a cache keyed by the value of an AST
(a statement, an expression) would serve ``m.year * 1.0`` from the plan
or closure compiled for ``m.year * 1``, or answer ``true as x`` with
``1``.  The compiled executor keys plans by statement identity and by
SQL shape plus typed literal vector only; these tests send literal
variants that compare equal through every compiled form — the default
shape plans, ``parameterised=False`` (every literal pinned) and the
service session — and hold each sighting to the interpreted executor in
value *and* type.  They also pin that ``explain_empty`` refuses a
non-SELECT text before anything runs.
"""

import asyncio

import pytest

from repro.datasets import movie_database
from repro.engine import Executor
from repro.errors import SqlParseError
from repro.query_nl.empty_answer import AnswerExplainer
from repro.service import NarrationService

#: Texts in one group differ only in literals that compare equal.
GROUPS = {
    "arithmetic": (
        "select m.year * 1 as h from MOVIES m where m.id = 1",
        "select m.title, m.year * 1.0 as h from MOVIES m where m.id = 1",
        "select m.title, m.year * 1 as h from MOVIES m where m.id = 1",
    ),
    "select literal": (
        "select 1 as x from MOVIES m where m.id = 1",
        "select 1.0 as x from MOVIES m where m.id = 1",
        "select true as x from MOVIES m where m.id = 1",
    ),
    "predicate": (
        "select m.title from MOVIES m where m.id = 1 and m.year * 1 > 2004.5",
        "select m.title from MOVIES m where m.id = 1 and m.year * 1.0 > 2004.5",
        "select m.title, m.year / 2 as half from MOVIES m where m.id = 1",
        "select m.title, m.year / 2.0 as half from MOVIES m where m.id = 1",
    ),
}

COMPILED_FORMS = {
    "shape plans": dict(compiled=True, parameterised=True),
    "pinned": dict(compiled=True, parameterised=False),
}


def typed(result):
    """Columns plus every value with its type: ``1`` and ``1.0`` differ."""
    return result.columns, [
        tuple((value, type(value)) for value in row) for row in result.to_tuples()
    ]


@pytest.mark.parametrize("form", sorted(COMPILED_FORMS))
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_equal_literals_never_share_an_answer(form, group):
    database = movie_database()
    executor = Executor(database, **COMPILED_FORMS[form])
    oracle = Executor(database, compiled=False)
    # Three rounds: first sightings, admissions, shape-plan hits.
    for sighting in range(3):
        for sql in GROUPS[group]:
            assert typed(executor.execute_sql(sql)) == typed(oracle.execute_sql(sql)), (
                sighting,
                sql,
            )
    assert executor.cache_stats["shape_plans"]["hits"] > 0


def test_equal_literals_through_the_service_session():
    database = movie_database()
    oracle = Executor(movie_database(), compiled=False)
    texts = GROUPS["arithmetic"][:2]

    async def main():
        async with NarrationService() as service:
            session = service.session(database=database)
            return [
                (sql, await session.execute(sql)) for _ in range(3) for sql in texts
            ]

    for sql, result in asyncio.run(main()):
        assert typed(result) == typed(oracle.execute_sql(sql)), sql


def test_pinned_plans_never_serve_another_literal_variant():
    database = movie_database()
    executor = Executor(database, compiled=True, parameterised=False)
    oracle = Executor(database, compiled=False)
    sql = "select m.title, m.year - {year} as age from MOVIES m where m.year = {year}"
    variants = ("2004", "1995", "2004.0", "2004")
    executor.execute_sql(sql.format(year=2004))  # first sighting of the shape
    for year in variants:
        text = sql.format(year=year)
        assert typed(executor.execute_sql(text)) == typed(oracle.execute_sql(text)), text
    stats = executor.cache_stats["shape_plans"]
    # One plan per literal vector (2004, 1995, 2004.0); only the exact
    # repeat of 2004 was served from an existing plan.
    assert stats["entries"] == 3
    assert stats["hits"] == 1


@pytest.mark.parametrize(
    "sql",
    [
        "insert into GENRE values (1, 'explained')",
        "delete from MOVIES where id = 1",
        "update MOVIES set year = 1 where id = 1",
        "explain the movies",
    ],
)
def test_explain_refuses_a_non_select_text_before_running_it(sql):
    database = movie_database()
    version = database.data_version
    rows = {table.name: table.row_count for table in database.tables}
    explainer = AnswerExplainer(database)
    with pytest.raises(SqlParseError):
        explainer.explain(sql)
    assert database.data_version == version
    assert {table.name: table.row_count for table in database.tables} == rows
    assert explainer.executor.cache_stats["shape_plans"]["fallbacks"] == 0


def test_explain_empty_refuses_a_non_select_text_through_the_session():
    database = movie_database()
    version = database.data_version

    async def main():
        async with NarrationService() as service:
            session = service.session(database=database)
            with pytest.raises(SqlParseError):
                await session.explain_empty("insert into GENRE values (1, 'explained')")

    asyncio.run(main())
    assert database.data_version == version
