"""PERF — the compiled narration front end vs. the interpreted one.

Covers the language-side compile-once-run-many pipeline of the narration
stack: the precompiled-regex lexer vs. the character-by-character oracle,
cold/warm query translation over the 50-query generated workload,
database narration under a fixed length budget, and streaming vs. eager
relation narration — asserting byte equivalence wherever both paths run.
"""

import pytest
from conftest import report

from repro.content.narrator import ContentNarrator
from repro.content.presets import movie_spec
from repro.datasets import (
    GeneratorConfig,
    PAPER_QUERIES,
    generate_movie_database,
    generate_workload,
    movie_schema,
)
from repro.nlg.document import LengthBudget
from repro.query_nl.translator import QueryTranslator
from repro.sql.lexer import tokenize, tokenize_reference


@pytest.fixture(scope="module")
def workload_sql():
    return [q.sql for q in generate_workload(queries_per_category=10, seed=42)]


@pytest.fixture(scope="module")
def db200():
    return generate_movie_database(GeneratorConfig(movies=200, directors=20, actors=50))


def test_regex_lexer_workload(benchmark, workload_sql):
    results = benchmark(lambda: [tokenize(sql) for sql in workload_sql])
    assert len(results) == 50


def test_char_lexer_workload_baseline(benchmark, workload_sql):
    results = benchmark(lambda: [tokenize_reference(sql) for sql in workload_sql])
    assert len(results) == 50


def test_lexers_token_identical(workload_sql):
    for sql in list(PAPER_QUERIES.values()) + workload_sql:
        fast = tokenize(sql)
        slow = tokenize_reference(sql)
        assert [(t.type, t.value, t.line, t.column) for t in fast] == [
            (t.type, t.value, t.line, t.column) for t in slow
        ]


def test_cold_translate_workload(benchmark, workload_sql):
    schema = movie_schema()

    def cold():
        translator = QueryTranslator(schema)
        return [translator.translate(sql) for sql in workload_sql]

    results = benchmark(cold)
    assert len(results) == 50


def test_warm_translate_workload(benchmark, workload_sql):
    schema = movie_schema()
    translator = QueryTranslator(schema)
    for sql in workload_sql:
        translator.translate(sql)
    results = benchmark(lambda: [translator.translate(sql) for sql in workload_sql])
    assert len(results) == 50
    report(
        "PERF: warm translate serves the workload from the translation LRU",
        cache=translator._cache.stats,
    )


def test_narrate_database(benchmark, db200):
    spec = movie_spec(db200.schema)
    budget = LengthBudget(max_sentences=12)
    text = benchmark(
        lambda: ContentNarrator(db200, spec=spec).narrate_database(budget=budget)
    )
    assert text.count(".") >= 10


def test_streaming_matches_eager_byte_for_byte(db200):
    spec = movie_spec(db200.schema)
    narrator = ContentNarrator(db200, spec=spec)
    for budget in (
        LengthBudget(max_sentences=5),
        LengthBudget(max_sentences=12),
        LengthBudget(max_words=60),
        None,
    ):
        assert narrator.narrate_relation(
            "MOVIES", budget=budget
        ) == narrator.narrate_relation("MOVIES", budget=budget, streaming=False)


def test_compiled_templates_match_interpreted_narration(db200):
    compiled_spec = movie_spec(db200.schema)
    interpreted_spec = movie_spec(db200.schema)
    interpreted_spec.registry.compile_templates = False
    budget = LengthBudget(max_sentences=12)
    fast = ContentNarrator(db200, spec=compiled_spec).narrate_database(budget=budget)
    slow = ContentNarrator(db200, spec=interpreted_spec).narrate_database(budget=budget)
    assert fast == slow
