"""Relational catalog: schemas, relations, attributes, foreign keys.

This package is the structural substrate of the reproduction: the
schema-graph model of the paper (Section 2.2) is derived from a
:class:`Schema`, and both the storage engine and the SQL validator consult
it.
"""

from repro.catalog.attribute import Attribute
from repro.catalog.builder import RelationBuilder, SchemaBuilder
from repro.catalog.foreign_key import ForeignKey
from repro.catalog.relation import Relation
from repro.catalog.schema import Schema
from repro.catalog.types import (
    DataType,
    check_value,
    coerce_value,
    is_valid_value,
    render_value,
)

__all__ = [
    "Attribute",
    "DataType",
    "ForeignKey",
    "Relation",
    "RelationBuilder",
    "Schema",
    "SchemaBuilder",
    "check_value",
    "coerce_value",
    "is_valid_value",
    "render_value",
]
