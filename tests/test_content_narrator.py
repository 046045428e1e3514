"""Tests for the content narrator, including the paper's exact narratives."""

import pytest

from repro.content import ContentNarrator, SynthesisMode, UserProfile, movie_spec
from repro.datasets import library_database, movie_database
from repro.content.presets import default_spec, library_spec
from repro.errors import TranslationError
from repro.nlg import LengthBudget

PAPER_COMPACT = (
    "Woody Allen was born in Brooklyn, New York, USA on December 1, 1935."
    " As a director, Woody Allen's work includes Match Point (2005),"
    " Melinda and Melinda (2004), and Anything Else (2003)."
)

PAPER_PROCEDURAL = (
    "Woody Allen was born in Brooklyn, New York, USA on December 1, 1935."
    " As a director, Woody Allen's work includes Match Point, Melinda and"
    " Melinda, Anything Else. Match Point was released in 2005. Melinda and"
    " Melinda was released in 2004. Anything Else was released in 2003."
)


@pytest.fixture(scope="module")
def narrator() -> ContentNarrator:
    database = movie_database()
    return ContentNarrator(database, spec=movie_spec(database.schema))


class TestPaperNarratives:
    def test_compact_woody_allen_matches_paper(self, narrator):
        text = narrator.narrate_entity(
            "DIRECTOR", "Woody Allen", "MOVIES", mode=SynthesisMode.COMPACT
        )
        assert text == PAPER_COMPACT

    def test_procedural_woody_allen_matches_paper(self, narrator):
        text = narrator.narrate_entity(
            "DIRECTOR", "Woody Allen", "MOVIES", mode=SynthesisMode.PROCEDURAL
        )
        assert text == PAPER_PROCEDURAL

    def test_compact_is_shorter_than_procedural(self, narrator):
        compact = narrator.narrate_entity("DIRECTOR", "Woody Allen", "MOVIES")
        procedural = narrator.narrate_entity(
            "DIRECTOR", "Woody Allen", "MOVIES", mode=SynthesisMode.PROCEDURAL
        )
        assert len(compact) < len(procedural)

    def test_merged_tuple_narrative(self, narrator):
        row = narrator.database.table("DIRECTOR").lookup(("name",), ("Woody Allen",))[0]
        assert narrator.narrate_tuple("DIRECTOR", row) == (
            "Woody Allen was born in Brooklyn, New York, USA on December 1, 1935."
        )

    def test_split_pattern_single_sentence_with_conjunction(self, narrator):
        text = narrator.narrate_split("MOVIES", "Troy", ["DIRECTOR", "ACTOR"])
        assert text.count(".") == 1
        assert " and " in text
        assert "director" in text and "actor" in text
        assert "who " in text


class TestEntityNarration:
    def test_default_partner_selected_automatically(self, narrator):
        text = narrator.narrate_entity("DIRECTOR", "Woody Allen")
        assert "Match Point" in text

    def test_unknown_entity_raises(self, narrator):
        with pytest.raises(TranslationError):
            narrator.narrate_entity("DIRECTOR", "Nobody")

    def test_entity_with_row_argument(self, narrator):
        row = narrator.database.table("ACTOR").lookup(("name",), ("Brad Pitt",))[0]
        text = narrator.narrate_entity("ACTOR", row, "MOVIES")
        assert "Brad Pitt" in text and "Troy" in text

    def test_pair_without_a_list_join_template_reads_from_the_lexicon(self):
        database = movie_database()
        spec = default_spec(database.schema)
        spec.lexicon.set_concept("MOVIES", "movie", "movies")
        spec.lexicon.set_relationship_verb("DIRECTOR", "MOVIES", "directed")
        narrator = ContentNarrator(database, spec=spec)
        assert narrator.narrate_entity("DIRECTOR", "Woody Allen", "MOVIES") == (
            "Woody Allen has birth date December 1, 1935."
            " Woody Allen has birth location Brooklyn, New York, USA."
            " The director Woody Allen directed the movies Match Point,"
            " Melinda and Melinda, and Anything Else."
        )

    def test_budget_limits_sentences(self, narrator):
        text = narrator.narrate_entity(
            "DIRECTOR", "Woody Allen", "MOVIES",
            mode=SynthesisMode.PROCEDURAL,
            budget=LengthBudget(max_sentences=2),
        )
        assert text.count(".") <= 3  # periods inside dates still count


class TestRelationAndDatabaseNarration:
    def test_narrate_relation_limit(self, narrator):
        text = narrator.narrate_relation("DIRECTOR", limit=1)
        assert "Woody Allen" in text or "G. Loucas" in text

    def test_narrate_database_contains_overview(self, narrator):
        text = narrator.narrate_database(max_tuples_per_relation=1)
        assert text.startswith("The movies database describes")

    def test_narrate_database_respects_relation_filter(self, narrator):
        text = narrator.narrate_database(
            relations=["DIRECTOR"], max_tuples_per_relation=1, include_overview=False
        )
        assert "genre" not in text.lower()

    def test_narrate_database_budget(self, narrator):
        bounded = narrator.narrate_database(budget=LengthBudget(max_sentences=3))
        unbounded = narrator.narrate_database()
        assert len(bounded) < len(unbounded)

    def test_narrate_schema(self, narrator):
        text = narrator.narrate_schema()
        assert "movies" in text and "directors" in text

    def test_profile_excludes_relations(self):
        database = movie_database()
        profile = UserProfile(excluded_relations={"GENRE"})
        narrator = ContentNarrator(database, spec=movie_spec(database.schema), profile=profile)
        text = narrator.narrate_database(max_tuples_per_relation=1, include_overview=False)
        assert "genre" not in text.lower()

    def test_profile_budget_applies_by_default(self):
        database = movie_database()
        profile = UserProfile(budget=LengthBudget(max_sentences=2))
        narrator = ContentNarrator(database, spec=movie_spec(database.schema), profile=profile)
        bounded = narrator.narrate_database()
        assert bounded.count(".") <= 4


class TestQueryAnswerNarration:
    def test_single_column_answer(self, narrator):
        from repro.engine import Executor

        result = Executor(narrator.database).execute_sql(
            "select m.title from MOVIES m where m.year = 2004 order by m.title"
        )
        text = narrator.narrate_query_answer(result)
        assert "2" in text and "Melinda and Melinda" in text and "Troy" in text

    def test_empty_answer(self, narrator):
        from repro.engine import Executor

        result = Executor(narrator.database).execute_sql(
            "select m.title from MOVIES m where m.year = 1900"
        )
        assert "no results" in narrator.narrate_query_answer(result)

    def test_multi_column_answer(self, narrator):
        from repro.engine import Executor

        result = Executor(narrator.database).execute_sql(
            "select m.title, m.year from MOVIES m where m.id = 1"
        )
        text = narrator.narrate_query_answer(result)
        assert "Match Point" in text and "2005" in text

    def test_truncation_notice(self, narrator):
        from repro.engine import Executor

        result = Executor(narrator.database).execute_sql("select g.genre from GENRE g")
        text = narrator.narrate_query_answer(result, max_rows=3)
        assert "more rows" in text


class TestLibraryScenario:
    def test_author_narrative(self):
        database = library_database()
        narrator = ContentNarrator(database, spec=library_spec(database.schema))
        text = narrator.narrate_entity("AUTHOR", "Grace Murray", "ITEM")
        assert "Grace Murray" in text
        assert "Talking Databases" in text
