"""Golden-equivalence suite for the compiled narration front end.

Three families of differential assertions back the compiled pipeline:

* the regex lexer must reproduce the character lexer token-for-token —
  values, types and 1-based positions — and raise the same errors at the
  same positions;
* compiled templates must realise byte-for-byte what the interpreted
  ``Template``/``ListTemplate`` walkers produce, including the structural
  subject/verb/complement split the aggregation step relies on;
* streaming relation narration must render byte-for-byte what the
  eager build-everything-then-trim pipeline renders, across datasets,
  budgets and styles; database narration (eager only) must agree between
  compiled and interpreted templates across datasets, profiles, budgets
  and synthesis modes.
"""

import random

import pytest

from repro.content.narrator import ContentNarrator
from repro.content.patterns import SynthesisMode
from repro.content.personalization import UserProfile
from repro.content.presets import default_spec, employee_spec, library_spec, movie_spec
from repro.content.single_relation import TupleStyle, _split_structurally
from repro.datasets import (
    PAPER_QUERIES,
    GeneratorConfig,
    employee_database,
    generate_movie_database,
    generate_workload,
    library_database,
    movie_database,
)
from repro.errors import SqlLexError
from repro.lexicon import morphology
from repro.nlg.document import LengthBudget
from repro.query_nl.translator import QueryTranslator
from repro.sql.lexer import (
    Lexer,
    RegexLexer,
    tokenize,
    tokenize_reference,
    use_reference_lexer,
)
from repro.templates.compile import CompiledListTemplate, CompiledTemplate
from repro.templates.registry import TemplateRegistry


def _token_tuples(tokens):
    return [(t.type, t.value, t.line, t.column) for t in tokens]


def _lex_outcome(lexer_cls, text):
    try:
        return ("ok", _token_tuples(lexer_cls(text).tokenize()))
    except SqlLexError as error:
        return ("error", error.message, error.line, error.column)


def assert_lexers_agree(text):
    reference = _lex_outcome(Lexer, text)
    fast = _lex_outcome(RegexLexer, text)
    assert fast == reference, f"lexers disagree on {text!r}"


class TestLexerEquivalence:
    def test_paper_queries(self):
        for name, sql in PAPER_QUERIES.items():
            assert_lexers_agree(sql)

    def test_generated_workload(self):
        for query in generate_workload(queries_per_category=10, seed=42):
            assert_lexers_agree(query.sql)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "\n\n\t",
            "select 'O''Hara', 2.5, .5, 1., x_1 FROM \"Select\"",
            "a <= b <> c != d || e",
            "(a, b);",
            "-- only a comment",
            "/* multi\nline */ select 1",
            "seLEct FrOm WHERE",
            "count(*)",
            "a.b.c",
            "5..6",
            "1.2.3",
            "12abc",
            "x--y\nz",
            "SELECT\n  title\nFROM movies\nWHERE 'multi\nline' = a",
            "'don''t stop'",
            "'a'''",
            "''",
            "_x __y",
        ],
    )
    def test_edge_inputs(self, text):
        assert_lexers_agree(text)

    @pytest.mark.parametrize(
        "text",
        [
            "select /* never ends",
            "select 'open",
            'select "open',
            "select @",
            "select !",
            "'abc''",
            "'''",
            "select|",
            "  \n  @",
            "\n\n/* x",
            "a\n'op\nen",
            'x\n"q\nuo',
        ],
    )
    def test_error_inputs_same_diagnostics(self, text):
        reference = _lex_outcome(Lexer, text)
        assert reference[0] == "error"
        assert _lex_outcome(RegexLexer, text) == reference

    def test_randomised_differential(self):
        rng = random.Random(1337)
        alphabet = "abc ABC_019 '\"<>=!-/*.,;()\n\t%|+"
        for _ in range(500):
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randint(0, 60))
            )
            assert_lexers_agree(text)

    def test_keyword_values_are_canonical_and_shared(self):
        # The regex lexer directly: interning is a property of the compiled
        # lexer, which REPRO_ORACLE's forced reference lexer bypasses.
        a = RegexLexer("select SELECT Select").tokenize()
        assert [t.value for t in a[:-1]] == ["SELECT", "SELECT", "SELECT"]
        assert a[0].value is a[1].value  # interned keyword table

    def test_use_reference_lexer_scope(self):
        sql = "SELECT title FROM movies"
        with use_reference_lexer():
            ref = tokenize(sql)
        assert _token_tuples(ref) == _token_tuples(tokenize_reference(sql))
        assert _token_tuples(tokenize(sql)) == _token_tuples(ref)

    def test_translator_identical_under_both_lexers(self):
        schema = movie_database().schema
        translator = QueryTranslator(schema, cache_size=None)
        for sql in PAPER_QUERIES.values():
            fast = translator.translate(sql).text
            with use_reference_lexer():
                slow = QueryTranslator(schema, cache_size=None).translate(sql).text
            assert fast == slow


# ---------------------------------------------------------------------------
# Compiled templates
# ---------------------------------------------------------------------------


def _all_specs():
    return [
        movie_spec(movie_database().schema),
        employee_spec(employee_database().schema),
        library_spec(library_database().schema),
    ]


def _registry_templates(spec):
    """Every template the registry can hand out for its schema."""
    registry = spec.registry
    schema = spec.schema
    templates = []
    for relation in schema.relations:
        templates.append(registry.relation_template(relation.name))
        for attribute in relation.attributes:
            templates.append(registry.projection_template(relation.name, attribute.name))
        for other in schema.relations:
            label = registry.join_template(relation.name, other.name)
            if label is not None:
                templates.append(label)
    return templates


def _sample_values(database, relation):
    rows = list(database.table(relation.name).rows())[:3]
    samples = []
    for row in rows:
        values = {}
        for attribute in relation.attributes:
            values[attribute.name] = row.get(attribute.name)
            values[f"{relation.name}.{attribute.name}"] = row.get(attribute.name)
        samples.append(values)
    return samples


class TestCompiledTemplateEquivalence:
    @pytest.mark.parametrize("database_factory,spec_factory", [
        (movie_database, movie_spec),
        (employee_database, employee_spec),
        (library_database, library_spec),
    ])
    def test_instantiate_byte_identical(self, database_factory, spec_factory):
        database = database_factory()
        spec = spec_factory(database.schema)
        for template in _registry_templates(spec):
            compiled = CompiledTemplate(template)
            for relation in database.schema.relations:
                for values in _sample_values(database, relation):
                    assert compiled.instantiate(values, strict=False) == \
                        template.instantiate(values, strict=False)

    @pytest.mark.parametrize("database_factory,spec_factory", [
        (movie_database, movie_spec),
        (employee_database, employee_spec),
        (library_database, library_spec),
    ])
    def test_split_byte_identical(self, database_factory, spec_factory):
        database = database_factory()
        spec = spec_factory(database.schema)
        for template in _registry_templates(spec):
            compiled = CompiledTemplate(template)
            for relation in database.schema.relations:
                for values in _sample_values(database, relation):
                    assert compiled.split_instantiate(values) == \
                        _split_structurally(template, values)

    def test_strict_missing_slot_raises_same_message(self):
        from repro.errors import TemplateInstantiationError
        from repro.templates.parser import parse_template

        template = parse_template('DIRECTOR.name + " was born in " + DIRECTOR.blocation')
        compiled = CompiledTemplate(template)
        values = {"name": "Woody Allen"}
        with pytest.raises(TemplateInstantiationError) as interpreted:
            template.instantiate(values, strict=True)
        with pytest.raises(TemplateInstantiationError) as fast:
            compiled.instantiate(values, strict=True)
        assert str(fast.value) == str(interpreted.value)

    def test_list_template_byte_identical(self):
        spec = movie_spec(movie_database().schema)
        label = spec.registry.list_template("MOVIE_LIST")
        compiled = CompiledListTemplate(label)
        rows = [
            {"title": "Match Point", "year": 2005},
            {"title": "Melinda and Melinda", "year": 2004},
            {"title": "Anything Else", "year": 2003},
        ]
        for count in range(len(rows) + 1):
            subset = rows[:count]
            assert compiled.instantiate(subset, strict=False) == \
                label.instantiate(subset, strict=False)

    def test_registry_memoizes_compiled_forms_and_defaults(self):
        schema = movie_database().schema
        # Explicit: this test is about the compiled path specifically, so
        # it must keep compiling under REPRO_ORACLE's flipped defaults.
        registry = TemplateRegistry(schema, compile_templates=True)
        template = registry.projection_template("MOVIES", "year")
        assert registry.projection_template("MOVIES", "year") is template
        compiled = registry.compiled(template)
        assert registry.compiled(template) is compiled
        disabled = TemplateRegistry(schema, compile_templates=False)
        assert disabled.compiled(disabled.relation_template("MOVIES")) is None

    @pytest.mark.parametrize("database_factory,spec_factory", [
        (movie_database, movie_spec),
        (employee_database, employee_spec),
        (library_database, library_spec),
    ])
    def test_narration_identical_with_compilation_disabled(
        self, database_factory, spec_factory
    ):
        """Whole narratives agree between compiled and interpreted registries."""
        database = database_factory()
        compiled_spec = spec_factory(database.schema)
        interpreted_spec = spec_factory(database.schema)
        interpreted_spec.registry.compile_templates = False

        fast = ContentNarrator(database, spec=compiled_spec)
        slow = ContentNarrator(database, spec=interpreted_spec)
        budget = LengthBudget(max_sentences=15)
        assert fast.narrate_database(budget=budget) == slow.narrate_database(budget=budget)
        for relation in database.schema.relations:
            if relation.bridge:
                continue
            assert fast.narrate_relation(relation.name, budget=budget) == \
                slow.narrate_relation(relation.name, budget=budget)
            for row in list(database.table(relation.name).rows())[:2]:
                assert fast.narrate_tuple(relation.name, row) == \
                    slow.narrate_tuple(relation.name, row)
                assert fast.narrate_entity(relation.name, row) == \
                    slow.narrate_entity(relation.name, row)


# ---------------------------------------------------------------------------
# Streaming relation narration, and database narration across budgets
# ---------------------------------------------------------------------------


BUDGETS = [
    None,
    LengthBudget(max_sentences=0),
    LengthBudget(max_sentences=1),
    LengthBudget(max_sentences=2),
    LengthBudget(max_sentences=3),
    LengthBudget(max_sentences=4),
    LengthBudget(max_sentences=12),
    LengthBudget(max_words=40),
    LengthBudget(max_words=60),
    LengthBudget(max_sentences=3, max_words=25),
    LengthBudget(max_sentences=6, max_words=50),
]


def _generated_movies():
    return generate_movie_database(GeneratorConfig(movies=60, directors=6, actors=15))


def _reverse_join_profile():
    """A designer label for the reverse direction swaps the roles, so the
    relationship sentence carries the *narrated* relation's weight."""
    return UserProfile(
        relation_weights={"DIRECTOR": 50.0},
        attribute_weights={
            ("DIRECTOR", "blocation"): 0.1,
            ("DIRECTOR", "bdate"): 0.1,
        },
    )


def _procedural_children(spec):
    """Procedural child tuples are narrated with the default attribute set,
    not the spec's attribute order."""
    spec.attribute_order["MOVIES"] = ()


#: id -> (database factory, spec factory, profile factory, spec tweak)
DATABASE_CASES = {
    "movies": (movie_database, movie_spec, None, None),
    "employees": (employee_database, employee_spec, None, None),
    "library": (library_database, library_spec, None, None),
    "employees-default-spec": (employee_database, default_spec, None, None),
    "library-default-spec": (library_database, default_spec, None, None),
    "generated-movies": (_generated_movies, movie_spec, None, None),
    "varied-weights": (
        _generated_movies,
        movie_spec,
        lambda: UserProfile(
            name="varied",
            relation_weights={"MOVIES": 5.0, "GENRE": 0.5},
            attribute_weights={("MOVIES", "year"): 4.0},
        ),
        None,
    ),
    "reverse-join": (movie_database, movie_spec, _reverse_join_profile, None),
    "procedural-children": (
        movie_database,
        movie_spec,
        lambda: UserProfile(
            relation_weights={"MOVIES": 0.5},
            attribute_weights={("MOVIES", "year"): 40.0},
        ),
        _procedural_children,
    ),
}


class TestDatabaseNarration:
    @pytest.mark.parametrize("mode", [SynthesisMode.COMPACT, SynthesisMode.PROCEDURAL])
    @pytest.mark.parametrize("case", sorted(DATABASE_CASES))
    def test_narrate_database_matches_interpreted_templates(self, case, mode):
        database_factory, spec_factory, profile_factory, tweak = DATABASE_CASES[case]
        database = database_factory()
        narrators = []
        # Explicit on both sides, so the comparison holds under
        # REPRO_ORACLE's flipped defaults too.
        for compile_templates in (True, False):
            spec = spec_factory(database.schema)
            spec.registry.compile_templates = compile_templates
            if tweak is not None:
                tweak(spec)
            profile = profile_factory() if profile_factory is not None else None
            narrators.append(ContentNarrator(database, spec=spec, profile=profile))
        compiled, interpreted = narrators
        for budget in BUDGETS:
            text = compiled.narrate_database(budget=budget, mode=mode)
            assert text == interpreted.narrate_database(budget=budget, mode=mode), budget


class TestStreamingNarration:
    @pytest.mark.parametrize("database_factory,spec_factory", [
        (movie_database, movie_spec),
        (employee_database, employee_spec),
        (library_database, library_spec),
    ])
    def test_narrate_relation_matches_eager(self, database_factory, spec_factory):
        database = database_factory()
        narrator = ContentNarrator(database, spec=spec_factory(database.schema))
        for budget in BUDGETS:
            for relation in database.schema.relation_names:
                for style in (TupleStyle.FULL, TupleStyle.HEADING_ONLY):
                    streamed = narrator.narrate_relation(
                        relation, budget=budget, style=style
                    )
                    eager = narrator.narrate_relation(
                        relation, budget=budget, style=style, streaming=False
                    )
                    assert streamed == eager, (relation, budget, style)

    def test_narrate_relation_bound_excludes_all_null_attributes(self):
        """An all-NULL attribute yields no clause, so the tuple bound drops
        its weight and keeps the heading fallback's."""
        database = movie_database(seed_data=False)
        database.insert("DIRECTOR", {"id": 1, "name": "A. Director"})
        database.insert("DIRECTOR", {"id": 2, "name": "B. Director"})
        narrator = ContentNarrator(database, spec=movie_spec(database.schema))
        director = database.schema.relation("DIRECTOR")
        assert narrator._tuple_clause_bound("DIRECTOR", TupleStyle.FULL) == \
            narrator.profile.relation_weight(director)
        assert narrator.narrate_relation(
            "DIRECTOR", budget=LengthBudget(max_sentences=2)
        ) == narrator.narrate_relation(
            "DIRECTOR", budget=LengthBudget(max_sentences=2), streaming=False
        )

    def test_streaming_stops_early_on_uniform_weights(self):
        """With uniform weights a settled budget abandons the stream early."""
        from repro.content.personalization import UserProfile
        from repro.content.ranking import rank_tuples
        from repro.nlg.document import collect_streaming

        database = movie_database()
        schema = database.schema
        profile = UserProfile(
            relation_weights={r.name: 1.0 for r in schema.relations},
            attribute_weights={
                (r.name, a.name): 1.0 for r in schema.relations for a in r.attributes
            },
        )
        narrator = ContentNarrator(database, spec=movie_spec(schema), profile=profile)
        ranked = rank_tuples(database, "MOVIES", profile=profile)

        def spy(stream, consumed):
            for item in stream:
                consumed.append(item)
                yield item

        consumed: list = []
        collect_streaming(
            spy(narrator._relation_sentence_stream("MOVIES", ranked, TupleStyle.FULL), consumed),
            LengthBudget(max_sentences=2),
        )
        total = sum(
            1 for _ in narrator._relation_sentence_stream("MOVIES", ranked, TupleStyle.FULL)
        )
        assert total > 2
        assert len(consumed) == 2  # early exit right when the budget settles


# ---------------------------------------------------------------------------
# Structural-layer memoization
# ---------------------------------------------------------------------------


class TestStructuralMemoization:
    def test_schema_graph_cached_lookups_match_structure(self):
        from repro.graph.schema_graph import SchemaGraph

        schema = movie_database().schema
        graph = SchemaGraph(schema)
        for relation in schema.relation_names:
            neighbours = graph.neighbours(relation)
            assert neighbours == graph.neighbours(relation)
            assert graph.degree(relation) == len(graph.join_edges_of(relation))
            for other in schema.relation_names:
                edges = graph.join_edges_between(relation, other)
                assert edges == graph.join_edges_between(relation, other)
                path = graph.shortest_path(relation, other)
                assert path == graph.shortest_path(relation, other)

    def test_shared_graph_is_reused_per_schema(self):
        from repro.graph.schema_graph import graph_for

        database = movie_database()
        assert graph_for(database.schema) is graph_for(database.schema)

    def test_morphology_caches_preserve_behaviour(self):
        morphology._pluralize_many.cache_clear()
        assert morphology.pluralize("movie") == "movies"
        assert morphology.pluralize("movie", count=1) == "movie"
        assert morphology.pluralize("person") == "people"
        assert morphology.pluralize("release year") == "release years"
        assert morphology.indefinite_article("actor") == "an"
        assert morphology.indefinite_article("movie") == "a"
        assert morphology.number_word(3) == "three"
        assert morphology.ordinal_word(2) == "second"
        assert morphology._pluralize_many.cache_info().currsize > 0

    def test_translator_cache_hit_returns_fresh_notes_copy(self):
        schema = movie_database().schema
        translator = QueryTranslator(schema)
        sql = PAPER_QUERIES["Q1"]
        first = translator.translate(sql)
        first.notes.append("caller scribble")
        second = translator.translate(sql)
        assert "caller scribble" not in second.notes
        assert second.notes == [n for n in second.notes]
        third = translator.translate(sql)
        assert third.notes == second.notes
        assert third is not second

    def test_table_lookup_self_tunes_and_matches_scan(self):
        database = movie_database()
        table = database.table("MOVIES")
        rows = table.lookup(["year"], [2005])
        assert table.find_index(["year"]) is not None
        expected = [r for r in table.rows() if r.get("year") == 2005]
        assert [r.as_dict() for r in rows] == [r.as_dict() for r in expected]

    def test_table_null_counts_follow_mutations(self):
        database = movie_database()
        table = database.table("MOVIES")
        base = table.null_count("year")
        rowid = table.insert({"id": 9001, "title": "Untitled", "year": None})
        assert table.null_count("year") == base + 1
        table.update_rows([rowid], {"year": 1999})
        assert table.null_count("year") == base
        table.delete_rows([rowid])
        assert table.null_count("year") == base
