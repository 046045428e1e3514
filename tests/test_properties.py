"""Property-based tests (hypothesis) for core invariants."""

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import GeneratorConfig, generate_movie_records, movie_schema
from repro.lexicon.morphology import capitalize_first, join_list, pluralize, strip_extra_spaces
from repro.nlg import Clause, merge_clauses
from repro.nlg.realize import realize_sentence, word_count
from repro.sql import ast, parse_select, to_sql
from repro.sql.lexer import tokenize
from repro.sql.tokens import TokenType
from repro.engine.compile import ExpressionCompiler, resolve_slot
from repro.storage.row import Row
from repro.templates.spec import ListTemplate, slot, template

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

identifiers = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
safe_text = st.text(
    alphabet=string.ascii_letters + string.digits + " ',.-", min_size=0, max_size=30
)
scalar_values = st.one_of(
    st.integers(min_value=-10_000, max_value=10_000),
    st.text(alphabet=string.ascii_letters + " ", min_size=0, max_size=12),
    st.none(),
)


# A compositional strategy for small, well-formed SELECT statements over the
# movie schema; used for parse/print round-trip properties.
_columns = st.sampled_from(["m.id", "m.title", "m.year"])
_literals = st.one_of(
    st.integers(min_value=0, max_value=3000),
    st.sampled_from(["'Troy'", "'Match Point'", "'action'"]),
)
_comparisons = st.builds(
    lambda column, op, literal: f"{column} {op} {literal}",
    _columns,
    st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
    _literals,
)
_where = st.lists(_comparisons, min_size=1, max_size=3).map(" and ".join)
simple_selects = st.builds(
    lambda cols, where, distinct: (
        "select "
        + ("distinct " if distinct else "")
        + ", ".join(sorted(set(cols)))
        + " from MOVIES m where "
        + where
    ),
    st.lists(_columns, min_size=1, max_size=3),
    _where,
    st.booleans(),
)


class TestSqlRoundTripProperties:
    @given(sql=simple_selects)
    @settings(max_examples=60, deadline=None)
    def test_parse_print_parse_fixpoint(self, sql):
        first = parse_select(sql)
        printed = to_sql(first)
        second = parse_select(printed)
        assert first == second
        assert to_sql(second) == printed

    @given(sql=simple_selects)
    @settings(max_examples=40, deadline=None)
    def test_lexer_never_drops_string_literals(self, sql):
        literals = [t for t in tokenize(sql) if t.type is TokenType.STRING]
        for token in literals:
            assert token.value in sql

    @given(value=safe_text)
    @settings(max_examples=60, deadline=None)
    def test_string_literal_round_trip(self, value):
        rendered = str(ast.Literal(value))
        parsed = parse_select(f"select * from MOVIES m where m.title = {rendered}")
        conjunct = parsed.where
        assert isinstance(conjunct.right, ast.Literal)
        assert conjunct.right.value == value


class TestRowProperties:
    """Slots bound against a layout read what a Row over the same names would."""

    @given(values=st.dictionaries(identifiers, scalar_values, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_prefix_then_unqualified_lookup_recovers_values(self, values):
        # A scan's layout prefixes every column with its binding.
        layout = tuple(f"t.{key}" for key in values)
        row = tuple(values.values())
        compiler = ExpressionCompiler()
        for key, value in values.items():
            for reference in (ast.ColumnRef(key, "t"), ast.ColumnRef(key)):
                assert compiler.compile(reference, layout)(row) == value
            assert Row(dict(zip(layout, row)))[f"t.{key}"] == value

    @given(
        first=st.dictionaries(identifiers, scalar_values, max_size=4),
        second=st.dictionaries(identifiers, scalar_values, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_is_right_biased_and_total(self, first, second):
        # An outer row's layout followed by an inner row's reads as the
        # merged row would: every name resolves, the inner value wins.
        layout = tuple(first) + tuple(second)
        row = tuple(first.values()) + tuple(second.values())
        merged = {**first, **second}
        for key, value in merged.items():
            assert row[resolve_slot(layout, key)] == value


class TestMorphologyProperties:
    @given(noun=st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_pluralize_count_one_is_identity(self, noun):
        assert pluralize(noun, count=1) == noun

    @given(noun=st.text(alphabet=string.ascii_lowercase, min_size=2, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_pluralize_never_returns_empty(self, noun):
        assert pluralize(noun)

    @given(items=st.lists(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_join_list_contains_every_item(self, items):
        joined = join_list(items)
        for item in items:
            assert item in joined

    @given(text=safe_text)
    @settings(max_examples=60, deadline=None)
    def test_capitalize_first_is_idempotent(self, text):
        once = capitalize_first(text)
        assert capitalize_first(once) == once

    @given(text=safe_text)
    @settings(max_examples=60, deadline=None)
    def test_strip_extra_spaces_is_idempotent(self, text):
        once = strip_extra_spaces(text)
        assert strip_extra_spaces(once) == once


class TestNlgProperties:
    clause_strategy = st.builds(
        Clause,
        subject=st.sampled_from(["Woody Allen", "Brad Pitt", "the movie Troy"]),
        verb=st.sampled_from(["was born", "directed", "plays in", ""]),
        complements=st.tuples(st.sampled_from(["in Brooklyn", "on Monday", "Troy"])),
    )

    @given(clauses=st.lists(clause_strategy, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_merge_clauses_is_idempotent(self, clauses):
        once = merge_clauses(clauses)
        assert merge_clauses(once) == once

    @given(clauses=st.lists(clause_strategy, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_merge_never_increases_clause_count(self, clauses):
        assert len(merge_clauses(clauses)) <= len(clauses)

    @given(text=safe_text.filter(lambda s: any(c.isalnum() for c in s)))
    @settings(max_examples=60, deadline=None)
    def test_realize_sentence_terminates_with_punctuation(self, text):
        sentence = realize_sentence(text)
        assert sentence[-1] in ".!?"

    @given(
        rows=st.lists(
            st.fixed_dictionaries(
                {"title": st.sampled_from(["A", "B", "C"]), "year": st.integers(1900, 2020)}
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_list_template_mentions_every_row(self, rows):
        item = template(slot("title"), " (", slot("year"), ")")
        movie_list = ListTemplate(
            name="L", item=item, last_item=item, separator=", ", last_separator=", and "
        )
        rendered = movie_list.instantiate(rows)
        for row in rows:
            assert str(row["year"]) in rendered


class TestGeneratorProperties:
    @given(
        movies=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_generated_foreign_keys_always_resolve(self, movies, seed):
        config = GeneratorConfig(movies=movies, directors=3, actors=6, seed=seed)
        records = generate_movie_records(config)
        movie_ids = {m["id"] for m in records["MOVIES"]}
        director_ids = {d["id"] for d in records["DIRECTOR"]}
        actor_ids = {a["id"] for a in records["ACTOR"]}
        assert all(r["mid"] in movie_ids and r["did"] in director_ids for r in records["DIRECTED"])
        assert all(c["mid"] in movie_ids and c["aid"] in actor_ids for c in records["CAST"])
        assert all(g["mid"] in movie_ids for g in records["GENRE"])

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_generator_is_pure_function_of_config(self, seed):
        config = GeneratorConfig(movies=8, directors=2, actors=4, seed=seed)
        assert generate_movie_records(config) == generate_movie_records(config)


class TestTranslationProperties:
    @given(
        actor=st.sampled_from(["Brad Pitt", "Mark Hamill", "Morgan Freeman"]),
        year=st.integers(min_value=1950, max_value=2008),
    )
    @settings(max_examples=30, deadline=None)
    def test_path_query_translation_always_mentions_constant(self, actor, year):
        from repro.content import movie_spec
        from repro.query_nl import QueryTranslator

        schema = movie_schema()
        translator = QueryTranslator(schema, spec=movie_spec(schema))
        sql = (
            "select m.title from MOVIES m, CAST c, ACTOR a"
            " where m.id = c.mid and c.aid = a.id"
            f" and a.name = '{actor}' and m.year > {year}"
        )
        text = translator.translate(sql).text
        assert actor in text
        assert str(year) in text
        assert word_count(text) < 40
