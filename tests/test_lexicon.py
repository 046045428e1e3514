"""Tests for morphology helpers and the lexicon."""

import pytest

from repro.datasets import movie_schema
from repro.lexicon import (
    Lexicon,
    capitalize_first,
    default_lexicon,
    join_list,
    number_word,
    pluralize,
    sentence_case,
    strip_extra_spaces,
)


class TestPluralize:
    @pytest.mark.parametrize(
        "singular,plural",
        [
            ("movie", "movies"),
            ("actor", "actors"),
            ("genre", "genres"),
            ("box", "boxes"),
            ("church", "churches"),
            ("city", "cities"),
            ("day", "days"),
            ("leaf", "leaves"),
            ("knife", "knives"),
            ("person", "people"),
            ("schema", "schemas"),
            ("release year", "release years"),
            ("cast", "cast"),
        ],
    )
    def test_plural_forms(self, singular, plural):
        assert pluralize(singular) == plural

    def test_count_one_keeps_singular(self):
        assert pluralize("movie", count=1) == "movie"

    def test_irregular_case_preserved(self):
        assert pluralize("Person") == "People"

    # Regressions surfaced by the multi-domain corpora: the blanket
    # "-f -> -ves" rule mangled "chief" ("chieves") and even "tariff"
    # ("tarifves"), "hero" missed the "-o -> -oes" class ("heros"), and
    # compound -man nouns fell through to plain "s" ("chairmans").
    @pytest.mark.parametrize(
        "singular,plural",
        [
            ("chief", "chiefs"),
            ("tariff", "tariffs"),
            ("belief", "beliefs"),
            ("roof", "roofs"),
            ("hero", "heroes"),
            ("superhero", "superheroes"),
            ("echo", "echoes"),
            ("potato", "potatoes"),
            ("chairman", "chairmen"),
            ("spokesman", "spokesmen"),
            ("bannerman", "bannermen"),
        ],
    )
    def test_lexical_exceptions(self, singular, plural):
        assert pluralize(singular) == plural

    # The words the old rules got right must keep working after the fix.
    @pytest.mark.parametrize(
        "singular,plural",
        [
            ("wolf", "wolves"),
            ("direwolf", "direwolves"),
            ("shelf", "shelves"),
            ("thief", "thieves"),
            ("wife", "wives"),
            ("self", "selves"),
            ("video", "videos"),
            ("photo", "photos"),
            ("piano", "pianos"),
            ("woman", "women"),
        ],
    )
    def test_lexical_exceptions_do_not_overreach(self, singular, plural):
        assert pluralize(singular) == plural


class TestArticlesAndMisc:
    def test_capitalize_first_skips_punctuation(self):
        assert capitalize_first('"quoted" text') == '"Quoted" text'

    def test_join_list(self):
        assert join_list([]) == ""
        assert join_list(["a"]) == "a"
        assert join_list(["a", "b"]) == "a and b"
        assert join_list(["a", "b", "c"]) == "a, b, and c"
        assert join_list(["a", "b", "c"], oxford=False) == "a, b and c"
        assert join_list(["a", "b"], conjunction="or") == "a or b"

    def test_number_words(self):
        assert number_word(1) == "one"
        assert number_word(99) == "99"

    def test_strip_extra_spaces(self):
        assert strip_extra_spaces("  a   b , c .") == "a b, c."

    def test_sentence_case(self):
        assert sentence_case(["hello world", "", "already done."]) == [
            "Hello world.",
            "Already done.",
        ]


class TestLexicon:
    @pytest.fixture
    def lexicon(self) -> Lexicon:
        return default_lexicon(movie_schema())

    def test_concept_defaults(self, lexicon):
        assert lexicon.concept("MOVIES") == "movie"
        assert lexicon.concept_plural("MOVIES") == "movies"

    def test_concept_override(self, lexicon):
        lexicon.set_concept("MOVIES", "film", "films")
        assert lexicon.concept("MOVIES") == "film"
        assert lexicon.concept_plural("MOVIES") == "films"

    def test_caption_defaults_and_override(self, lexicon):
        assert lexicon.caption("DIRECTOR", "bdate") == "birth date"
        lexicon.set_caption("DIRECTOR", "bdate", "date of birth")
        assert lexicon.caption("DIRECTOR", "bdate") == "date of birth"

    def test_heading_caption(self, lexicon):
        assert lexicon.heading_caption("MOVIES") == "title"

    def test_relationship_verb_from_fk(self, lexicon):
        assert lexicon.relationship_verb("CAST", "ACTOR") == "plays in"

    def test_relationship_verb_override(self, lexicon):
        lexicon.set_relationship_verb("ACTOR", "MOVIES", "plays in")
        assert lexicon.relationship_verb("ACTOR", "MOVIES") == "plays in"
        assert lexicon.relationship_verb("MOVIES", "ACTOR") == "plays in"

    def test_relationship_verb_unrelated(self, lexicon):
        assert lexicon.relationship_verb("ACTOR", "DIRECTOR") is None
