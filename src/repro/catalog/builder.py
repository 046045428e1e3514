"""Fluent builder for constructing schemas programmatically.

Example
-------
::

    schema = (
        SchemaBuilder("movies")
        .relation("MOVIES", concept="movie")
            .column("id", "integer", primary_key=True)
            .column("title", "text", heading=True)
            .column("year", "integer")
            .done()
        .relation("DIRECTOR", concept="director")
            .column("id", "integer", primary_key=True)
            .column("name", "text", heading=True)
            .done()
        .foreign_key("DIRECTED", ["did"], "DIRECTOR", ["id"], verb="directed by")
        .build()
    )
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.catalog.attribute import Attribute
from repro.catalog.foreign_key import ForeignKey
from repro.catalog.relation import Relation
from repro.catalog.schema import Schema
from repro.catalog.types import DataType
from repro.errors import UnknownRelationError

TypeSpec = Union[str, DataType]


def _as_type(spec: TypeSpec) -> DataType:
    if isinstance(spec, DataType):
        return spec
    try:
        return DataType(spec.lower())
    except ValueError as exc:
        names = ", ".join(t.value for t in DataType)
        raise ValueError(f"unknown data type {spec!r} (expected one of {names})") from exc


class RelationBuilder:
    """Builder for a single relation; returned by :meth:`SchemaBuilder.relation`."""

    def __init__(
        self,
        parent: "SchemaBuilder",
        name: str,
        concept: Optional[str] = None,
        weight: float = 1.0,
        description: str = "",
        bridge: bool = False,
    ) -> None:
        self._parent = parent
        self._name = name
        self._concept = concept
        self._weight = weight
        self._description = description
        self._bridge = bridge
        self._heading: Optional[str] = None
        self._attributes: List[Attribute] = []

    def column(
        self,
        name: str,
        dtype: TypeSpec = DataType.TEXT,
        primary_key: bool = False,
        nullable: bool = True,
        heading: bool = False,
        caption: Optional[str] = None,
        weight: float = 1.0,
        description: str = "",
    ) -> "RelationBuilder":
        """Add a column to the relation under construction."""
        self._attributes.append(
            Attribute(
                name=name,
                dtype=_as_type(dtype),
                nullable=nullable and not primary_key,
                primary_key=primary_key,
                caption=caption,
                heading=heading,
                weight=weight,
                description=description,
            )
        )
        if heading:
            self._heading = name
        return self

    def done(self) -> "SchemaBuilder":
        """Finish this relation and return to the schema builder."""
        relation = Relation(
            name=self._name,
            attributes=self._attributes,
            concept=self._concept,
            heading_attribute=self._heading,
            weight=self._weight,
            description=self._description,
            bridge=self._bridge,
        )
        self._parent._add_relation(relation)
        return self._parent


class SchemaBuilder:
    """Fluent builder producing an immutable :class:`Schema`."""

    def __init__(self, name: str, description: str = "") -> None:
        self._name = name
        self._description = description
        self._relations: List[Relation] = []
        self._relation_names: Dict[str, Relation] = {}
        self._foreign_keys: List[ForeignKey] = []

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------

    def relation(
        self,
        name: str,
        concept: Optional[str] = None,
        weight: float = 1.0,
        description: str = "",
        bridge: bool = False,
    ) -> RelationBuilder:
        """Start defining a relation; finish with :meth:`RelationBuilder.done`."""
        return RelationBuilder(
            self,
            name,
            concept=concept,
            weight=weight,
            description=description,
            bridge=bridge,
        )

    def _add_relation(self, relation: Relation) -> None:
        self._relations.append(relation)
        self._relation_names[relation.name] = relation

    # ------------------------------------------------------------------
    # Foreign keys
    # ------------------------------------------------------------------

    def foreign_key(
        self,
        source: str,
        source_columns: Sequence[str],
        target: str,
        target_columns: Sequence[str],
        verb: Optional[str] = None,
        name: Optional[str] = None,
        weight: float = 1.0,
    ) -> "SchemaBuilder":
        """Register a foreign key from ``source`` columns to ``target`` columns."""
        for rel in (source, target):
            if rel not in self._relation_names:
                raise UnknownRelationError(
                    f"foreign key references relation {rel!r} which has not been"
                    " defined yet; define relations before foreign keys"
                )
        self._foreign_keys.append(
            ForeignKey(
                source_relation=source,
                source_attributes=tuple(source_columns),
                target_relation=target,
                target_attributes=tuple(target_columns),
                name=name,
                verb_phrase=verb,
                weight=weight,
            )
        )
        return self

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def build(self, require_primary_keys: bool = False) -> Schema:
        """Produce the immutable schema, validating foreign keys."""
        schema = Schema(
            name=self._name,
            relations=self._relations,
            foreign_keys=self._foreign_keys,
            description=self._description,
        )
        schema.validate(require_primary_keys=require_primary_keys)
        return schema
