"""Tests for attributes, relations and foreign keys."""

import pytest

from repro.catalog.attribute import Attribute
from repro.catalog.foreign_key import ForeignKey
from repro.catalog.relation import Relation
from repro.catalog.types import DataType
from repro.errors import DuplicateAttributeError, UnknownAttributeError


def make_movie_relation() -> Relation:
    return Relation(
        name="MOVIES",
        attributes=[
            Attribute("id", DataType.INTEGER, primary_key=True),
            Attribute("title", DataType.TEXT, heading=True),
            Attribute("year", DataType.INTEGER, caption="release year"),
        ],
        concept="movie",
    )


class TestAttribute:
    def test_qualified_name_requires_relation(self):
        attribute = Attribute("title")
        assert attribute.qualified_name == "title"
        assert attribute.renamed("MOVIES").qualified_name == "MOVIES.title"

    def test_display_caption_defaults_from_name(self):
        assert Attribute("birth_date").display_caption == "birth date"

    def test_display_caption_override(self):
        assert Attribute("bdate", caption="birth date").display_caption == "birth date"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Attribute("")


class TestRelation:
    def test_attribute_lookup_is_case_insensitive(self):
        relation = make_movie_relation()
        assert relation.attribute("TITLE").name == "title"

    def test_unknown_attribute_raises(self):
        with pytest.raises(UnknownAttributeError):
            make_movie_relation().attribute("missing")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(DuplicateAttributeError):
            Relation("R", [Attribute("a"), Attribute("a")])

    def test_primary_key(self):
        relation = make_movie_relation()
        assert relation.primary_key_names == ("id",)

    def test_heading_attribute_flagged(self):
        assert make_movie_relation().heading_attribute.name == "title"

    def test_heading_attribute_heuristic_prefers_text_non_key(self):
        relation = Relation(
            "ACTOR",
            [Attribute("id", DataType.INTEGER, primary_key=True), Attribute("name")],
        )
        assert relation.heading_attribute.name == "name"

    def test_heading_attribute_falls_back_to_first_attribute(self):
        relation = Relation(
            "LINK",
            [
                Attribute("a", DataType.INTEGER, primary_key=True),
                Attribute("b", DataType.INTEGER, primary_key=True),
            ],
        )
        assert relation.heading_attribute.name == "a"

    def test_concept_defaults_from_name(self):
        relation = Relation("DIRECTORS", [Attribute("name")])
        assert relation.concept == "director"

    def test_contains_and_len(self):
        relation = make_movie_relation()
        assert "title" in relation
        assert "nope" not in relation
        assert len(relation) == 3

    def test_requires_attributes(self):
        with pytest.raises(ValueError):
            Relation("EMPTY", [])


class TestForeignKey:
    def test_mismatched_arity_rejected(self):
        with pytest.raises(ValueError):
            ForeignKey("A", ("x", "y"), "B", ("z",))

    def test_requires_columns(self):
        with pytest.raises(ValueError):
            ForeignKey("A", (), "B", ())

    def test_display_name_generated(self):
        fk = ForeignKey("CAST", ("mid",), "MOVIES", ("id",))
        assert fk.display_name == "fk_cast_mid_movies"

    def test_column_pairs(self):
        fk = ForeignKey("CAST", ("mid", "aid"), "X", ("a", "b"))
        assert list(fk.column_pairs()) == [("mid", "a"), ("aid", "b")]
