"""Nodes of the database schema graph (paper, Section 2.2).

"The main entities, i.e., relations and attributes, constitute the nodes
of the graph, whereas the relationships among them, i.e., join and
projection edges, represent the edges of the graph."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.catalog.attribute import Attribute
from repro.catalog.relation import Relation


@dataclass(frozen=True)
class RelationNode:
    """A schema-graph node standing for a relation."""

    relation: Relation

    @property
    def name(self) -> str:
        return self.relation.name

    @property
    def weight(self) -> float:
        return self.relation.weight

    @property
    def is_bridge(self) -> bool:
        return self.relation.bridge

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"RelationNode({self.name})"


@dataclass(frozen=True)
class AttributeNode:
    """A schema-graph node standing for an attribute of a relation."""

    attribute: Attribute

    @property
    def key(self) -> str:
        return self.attribute.qualified_name

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"AttributeNode({self.key})"


GraphNode = Union[RelationNode, AttributeNode]
