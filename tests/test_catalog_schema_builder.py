"""Tests for the schema and the fluent builder."""

import pytest

from repro.catalog import DataType, SchemaBuilder
from repro.catalog.attribute import Attribute
from repro.catalog.relation import Relation
from repro.catalog.schema import Schema
from repro.errors import (
    DuplicateRelationError,
    InvalidForeignKeyError,
    InvalidSchemaError,
    UnknownRelationError,
)


def build_company_schema() -> Schema:
    return (
        SchemaBuilder("company")
        .relation("EMP", concept="employee")
        .column("eid", "integer", primary_key=True)
        .column("name", "text", heading=True)
        .column("did", "integer")
        .done()
        .relation("DEPT", concept="department")
        .column("did", "integer", primary_key=True)
        .column("dname", "text", heading=True)
        .done()
        .foreign_key("EMP", ["did"], "DEPT", ["did"], verb="works in")
        .build()
    )


class TestSchema:
    def test_relation_lookup_case_insensitive(self):
        schema = build_company_schema()
        assert schema.relation("emp").name == "EMP"

    def test_unknown_relation_raises(self):
        with pytest.raises(UnknownRelationError):
            build_company_schema().relation("NOPE")

    def test_duplicate_relation_rejected(self):
        relation = Relation("R", [Attribute("a")])
        with pytest.raises(DuplicateRelationError):
            Schema("s", [relation, relation])

    def test_foreign_keys_between(self):
        schema = build_company_schema()
        assert len(schema.foreign_keys_between("EMP", "DEPT")) == 1
        assert len(schema.foreign_keys_between("DEPT", "EMP")) == 1

    def test_foreign_key_validation_unknown_relation(self):
        from repro.catalog.foreign_key import ForeignKey

        relation = Relation("R", [Attribute("a")])
        with pytest.raises(InvalidForeignKeyError):
            Schema("s", [relation], [ForeignKey("R", ("a",), "MISSING", ("x",))])

    def test_foreign_key_validation_unknown_attribute(self):
        from repro.catalog.foreign_key import ForeignKey

        first = Relation("R", [Attribute("a")])
        second = Relation("S", [Attribute("b")])
        with pytest.raises(InvalidForeignKeyError):
            Schema("s", [first, second], [ForeignKey("R", ("a",), "S", ("missing",))])

    def test_validate_requires_primary_keys(self):
        schema = Schema("s", [Relation("R", [Attribute("a")])])
        with pytest.raises(InvalidSchemaError):
            schema.validate(require_primary_keys=True)

    def test_iteration_and_len(self):
        schema = build_company_schema()
        assert len(schema) == 2
        assert [r.name for r in schema] == ["EMP", "DEPT"]


class TestSchemaBuilder:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            SchemaBuilder("x").relation("R").column("a", "varchar2").done()

    def test_datatype_enum_accepted(self):
        schema = (
            SchemaBuilder("x").relation("R").column("a", DataType.INTEGER, primary_key=True).done().build()
        )
        assert schema.relation("R").attribute("a").dtype is DataType.INTEGER

    def test_foreign_key_requires_defined_relations(self):
        builder = SchemaBuilder("x").relation("R").column("a", "integer").done()
        with pytest.raises(UnknownRelationError):
            builder.foreign_key("R", ["a"], "MISSING", ["b"])

    def test_primary_key_columns_are_not_nullable(self):
        schema = (
            SchemaBuilder("x").relation("R").column("a", "integer", primary_key=True).done().build()
        )
        assert schema.relation("R").attribute("a").nullable is False

    def test_movie_schema_matches_figure_1(self):
        from repro.datasets import movie_schema

        schema = movie_schema()
        assert set(schema.relation_names) == {
            "MOVIES", "DIRECTOR", "DIRECTED", "ACTOR", "CAST", "GENRE",
        }
        assert len(schema.foreign_keys) == 5
        assert schema.relation("MOVIES").heading_attribute.name == "title"
        assert schema.relation("DIRECTED").bridge is True
