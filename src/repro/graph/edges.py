"""Edges of the database schema graph (paper, Section 2.2).

A *projection edge*, one for each attribute node, emanates from its
container relation node and ends at the attribute node; a *join edge*
emanates from a relation node and ends at another relation node,
representing a potential join through a primary key / foreign key
relationship.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.foreign_key import ForeignKey


@dataclass(frozen=True)
class ProjectionEdge:
    """Relation node → attribute node edge."""

    relation_name: str
    attribute_name: str
    weight: float = 1.0

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.relation_name} -> {self.relation_name}.{self.attribute_name}"


@dataclass(frozen=True)
class JoinEdge:
    """Relation node → relation node edge derived from a foreign key."""

    source_relation: str
    target_relation: str
    foreign_key: ForeignKey
    weight: float = 1.0

    def other(self, relation_name: str) -> str:
        """The endpoint that is not ``relation_name``."""
        if relation_name == self.source_relation:
            return self.target_relation
        return self.source_relation

    def touches(self, relation_name: str) -> bool:
        return relation_name in (self.source_relation, self.target_relation)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.source_relation} -> {self.target_relation} [{self.foreign_key.display_name}]"
