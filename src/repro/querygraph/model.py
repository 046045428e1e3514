"""The query-graph model of Section 3.2 (Figure 2).

Each relation participating in a query becomes a *parameterised class*
with four parts — ``<<FROM>>`` (the relation name), ``<<SELECT>>`` (the
projected attributes, as ``alias.relation.attribute: output``),
``<<WHERE>>`` (local constraints) and ``<<HAVING>>`` (grouping
constraints) — plus two UML notes, ``<<GROUP BY>>`` and ``<<ORDER BY>>``.
The classes are connected by join edges; nested queries hang off the outer
graph through nesting edges labelled with their connector (IN, EXISTS,
``<= ALL``, scalar comparison).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sql import ast
from repro.sql.printer import expression_to_sql


@dataclass(frozen=True)
class SelectEntry:
    """One ``<<SELECT>>`` line: ``alias.relation.attribute: output_alias``."""

    binding: str
    relation_name: str
    attribute: str
    output_alias: Optional[str] = None

    def render(self) -> str:
        text = f"{self.binding}.{self.relation_name}.{self.attribute}"
        if self.output_alias and self.output_alias != self.attribute:
            return f"{text}: {self.output_alias}"
        return text


class Constraint:
    """A constraint attached to a class (``<<WHERE>>`` or ``<<HAVING>>``).

    ``text`` — the SQL rendering used by class-box figures and the
    "such that ..." narration fallback — is computed lazily: most
    constraints are narrated from their expression structure and never
    need the rendered SQL.
    """

    __slots__ = ("expression", "_text")

    def __init__(self, expression: ast.Expression, text: Optional[str] = None) -> None:
        self.expression = expression
        self._text = text

    @property
    def text(self) -> str:
        if self._text is None:
            self._text = expression_to_sql(self.expression, top_level=True)
        return self._text

    @classmethod
    def from_expression(cls, expression: ast.Expression) -> "Constraint":
        return cls(expression=expression)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.expression == other.expression and self.text == other.text

    def __hash__(self) -> int:
        return hash((self.expression, self.text))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Constraint(expression={self.expression!r}, text={self.text!r})"


@dataclass
class QueryClass:
    """One parameterised class of the query graph (Figure 2)."""

    binding: str
    relation_name: str
    select_entries: List[SelectEntry] = field(default_factory=list)
    where_constraints: List[Constraint] = field(default_factory=list)
    having_constraints: List[Constraint] = field(default_factory=list)
    group_by: List[str] = field(default_factory=list)
    order_by: List[str] = field(default_factory=list)
    aggregate_entries: List[str] = field(default_factory=list)

    def render(self) -> str:
        """The textual rendering of the class box (used by figures/benches)."""
        lines = [f"<<FROM>> {self.relation_name}", f"<<alias>> {self.binding}"]
        lines.append("<<SELECT>>")
        for entry in self.select_entries:
            lines.append(f"  {entry.render()}")
        for aggregate in self.aggregate_entries:
            lines.append(f"  {aggregate}")
        lines.append("<<WHERE>>")
        for constraint in self.where_constraints:
            lines.append(f"  {constraint.text}")
        lines.append("<<HAVING>>")
        for constraint in self.having_constraints:
            lines.append(f"  {constraint.text}")
        if self.group_by:
            lines.append("<<GROUP BY>> " + ", ".join(self.group_by))
        if self.order_by:
            lines.append("<<ORDER BY>> " + ", ".join(self.order_by))
        return "\n".join(lines)


@dataclass(frozen=True)
class QueryJoinEdge:
    """A join edge between two classes, labelled with its condition."""

    left_binding: str
    right_binding: str
    condition: ast.Expression
    is_foreign_key: bool = False
    is_equality: bool = True

    @property
    def text(self) -> str:
        return expression_to_sql(self.condition, top_level=True)

    def other(self, binding: str) -> str:
        return self.right_binding if binding == self.left_binding else self.left_binding


@dataclass
class NestingEdge:
    """An edge connecting the outer graph to a nested query graph.

    ``connector`` is the SQL construct that introduces the nesting:
    ``IN``, ``NOT IN``, ``EXISTS``, ``NOT EXISTS``, ``<op> ALL``,
    ``<op> ANY`` or ``SCALAR`` (a subquery used as a value, as in Q7's
    HAVING clause).  ``outer_binding`` is the tuple variable the connector
    applies to, when one can be identified.
    """

    connector: str
    subgraph: "QueryGraph"
    outer_binding: Optional[str] = None
    in_having: bool = False
    condition_text: str = ""


@dataclass
class QueryGraph:
    """The complete graph-based representation of one SELECT statement."""

    statement: ast.SelectStatement
    classes: Dict[str, QueryClass] = field(default_factory=dict)
    join_edges: List[QueryJoinEdge] = field(default_factory=list)
    nesting_edges: List[NestingEdge] = field(default_factory=list)
    other_constraints: List[Constraint] = field(default_factory=list)
    global_aggregates: List[str] = field(default_factory=list)
    depth: int = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def bindings(self) -> Tuple[str, ...]:
        return tuple(self.classes)

    def query_class(self, binding: str) -> QueryClass:
        lowered = binding.lower()
        for candidate, query_class in self.classes.items():
            if candidate.lower() == lowered:
                return query_class
        raise KeyError(binding)

    def classes_of_relation(self, relation_name: str) -> List[QueryClass]:
        lowered = relation_name.lower()
        return [
            qc for qc in self.classes.values() if qc.relation_name.lower() == lowered
        ]

    def has_multiple_instances(self) -> bool:
        """True when some relation appears under more than one tuple variable."""
        relations = [qc.relation_name for qc in self.classes.values()]
        return len(relations) != len(set(relations))

    def join_edges_of(self, binding: str) -> List[QueryJoinEdge]:
        """Join edges incident to ``binding``, from a lazily-built index.

        Classification and translation probe this per binding; the index
        is rebuilt whenever edges were added since it was last built.
        """
        cache = getattr(self, "_edges_by_binding", None)
        if cache is None or getattr(self, "_edges_indexed", -1) != len(self.join_edges):
            cache = {}
            for edge in self.join_edges:
                cache.setdefault(edge.left_binding, []).append(edge)
                if edge.right_binding != edge.left_binding:
                    cache.setdefault(edge.right_binding, []).append(edge)
            self._edges_by_binding = cache
            self._edges_indexed = len(self.join_edges)
        return cache.get(binding, [])

    def degree(self, binding: str) -> int:
        return len(self.join_edges_of(binding))

    def non_fk_join_edges(self) -> List[QueryJoinEdge]:
        return [edge for edge in self.join_edges if not edge.is_foreign_key]

    def has_cycle(self) -> bool:
        """True when the join graph (as a multigraph) contains a cycle."""
        parent: Dict[str, str] = {b: b for b in self.classes}

        def find(node: str) -> str:
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        for edge in self.join_edges:
            if edge.left_binding not in parent or edge.right_binding not in parent:
                continue
            if edge.left_binding == edge.right_binding:
                return True
            left_root, right_root = find(edge.left_binding), find(edge.right_binding)
            if left_root == right_root:
                return True
            parent[left_root] = right_root
        return False

    def is_connected(self) -> bool:
        if not self.classes:
            return True
        bindings = list(self.classes)
        seen = {bindings[0]}
        frontier = [bindings[0]]
        while frontier:
            current = frontier.pop()
            for edge in self.join_edges_of(current):
                other = edge.other(current)
                if other in self.classes and other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == len(bindings)

    def projected_bindings(self) -> List[str]:
        return [b for b, qc in self.classes.items() if qc.select_entries]

    def has_aggregates(self) -> bool:
        if self.global_aggregates:
            return True
        return any(qc.aggregate_entries for qc in self.classes.values())

    def is_nested(self) -> bool:
        return bool(self.nesting_edges)

    def summary(self) -> str:
        """One line describing the graph's size and shape (used by benches)."""
        return (
            f"{len(self.classes)} classes, {len(self.join_edges)} join edges"
            f" ({len(self.non_fk_join_edges())} non-FK),"
            f" {len(self.nesting_edges)} nested blocks,"
            f" multi-instance={self.has_multiple_instances()},"
            f" cyclic={self.has_cycle()},"
            f" aggregates={self.has_aggregates()}"
        )
