"""Traversal of the schema graph and detection of structural patterns.

Section 2.2: "During this traversal, three possible structural patterns on
the graph can be found: the unary pattern (Ri - Rj), the join pattern
(Ri1, Ri2 > Rj), and the split pattern (Ri < Rj1, Rj2)."  The content
narrator composes sentences per pattern, so the traversal layer reports
both the visit order and the unary and split patterns found along the
way.  The traversal is a spanning tree, which gives every relation one
parent, so it never shows a join pattern and none is reported.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.schema_graph import SchemaGraph


class PatternKind(enum.Enum):
    """The structural patterns of Section 2.2 that a traversal reports."""

    UNARY = "unary"
    SPLIT = "split"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class StructuralPattern:
    """One occurrence of a structural pattern in a traversal.

    ``center`` is Ri; ``partners`` are the Rj relations: exactly one for a
    unary pattern, the two (or more) children for a split pattern.
    """

    kind: PatternKind
    center: str
    partners: Tuple[str, ...]

    def __str__(self) -> str:  # pragma: no cover - trivial
        partners = ", ".join(self.partners)
        return f"{self.kind.value}({self.center}; {partners})"


@dataclass
class TraversalStep:
    """One step of the DFS traversal: an edge from ``parent`` to ``relation``."""

    relation: str
    parent: Optional[str]
    depth: int


@dataclass
class TraversalResult:
    """The spanning tree produced by a DFS traversal plus detected patterns."""

    start: str
    steps: List[TraversalStep] = field(default_factory=list)
    patterns: List[StructuralPattern] = field(default_factory=list)

    @property
    def order(self) -> Tuple[str, ...]:
        return tuple(step.relation for step in self.steps)


def dfs_traversal(
    graph: SchemaGraph,
    start: Optional[str] = None,
    restrict_to: Optional[Sequence[str]] = None,
) -> TraversalResult:
    """DFS over the join edges of ``graph`` starting from ``start``.

    ``restrict_to`` limits the traversal to a subset of relations (the
    "database part concerned" in the paper's wording).  Neighbours are
    visited most-interesting-first (descending relation weight, then name)
    so the resulting narrative leads with the important relations.
    """
    if start is None:
        start = graph.central_relation().name
    else:
        start = graph.schema.relation(start).name
    allowed = (
        {graph.schema.relation(name).name for name in restrict_to}
        if restrict_to is not None
        else {r.name for r in graph.schema.relations}
    )
    if start not in allowed:
        allowed = allowed | {start}

    result = TraversalResult(start=start)
    visited: List[str] = []

    def visit(relation: str, parent: Optional[str], depth: int) -> None:
        visited.append(relation)
        result.steps.append(TraversalStep(relation=relation, parent=parent, depth=depth))
        neighbours = [
            n
            for n in graph.neighbours(relation)
            if n in allowed and n not in visited
        ]
        neighbours.sort(
            key=lambda name: (-graph.relation_node(name).weight, name)
        )
        for neighbour in neighbours:
            if neighbour in visited:
                continue
            visit(neighbour, relation, depth + 1)

    visit(start, None, 0)

    # Relations reachable only through relations outside ``allowed`` (or in a
    # different connected component) are appended as additional roots so the
    # traversal always covers the requested subset.
    for name in sorted(allowed, key=lambda n: (-graph.relation_node(n).weight, n)):
        if name not in visited:
            visit(name, None, 0)

    result.patterns.extend(detect_patterns(result))
    return result


def detect_patterns(result: TraversalResult) -> List[StructuralPattern]:
    """Detect unary and split patterns from the spanning tree."""
    patterns: List[StructuralPattern] = []
    children: Dict[str, List[str]] = {}
    for step in result.steps:
        if step.parent is not None:
            children.setdefault(step.parent, []).append(step.relation)

    for relation in result.order:
        kids = children.get(relation, [])
        if len(kids) == 1:
            patterns.append(
                StructuralPattern(
                    kind=PatternKind.UNARY, center=relation, partners=(kids[0],)
                )
            )
        elif len(kids) >= 2:
            patterns.append(
                StructuralPattern(
                    kind=PatternKind.SPLIT, center=relation, partners=tuple(kids)
                )
            )

    return patterns
