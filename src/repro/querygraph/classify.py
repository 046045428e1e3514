"""Classification of queries into the difficulty categories of Section 3.3.

The paper orders the categories by the effort their translation needs:

* **path** — SPJ, one tuple variable per relation, at most two joins per
  relation, the join graph is a path on the schema graph (Q1);
* **subgraph** — SPJ, one tuple variable per relation, any acyclic
  FK-join subgraph of the schema graph (Q2);
* **graph** — SPJ with multiple instances of a relation, cycles, or
  non-FK joins (Q3, Q4, the EMP/manager query);
* **non-graph / nested** — nested queries (Q5, Q6);
* **non-graph / aggregate** — grouping/aggregation (Q7);
* **impossible** — queries whose meaning hides behind an idiom that the
  graph alone cannot express: ``count(distinct …) = 1`` meaning "all the
  same" (Q8), or a quantified ``ALL`` comparison meaning a superlative
  (Q9).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.catalog.schema import Schema
from repro.querygraph.builder import build_query_graph
from repro.querygraph.model import QueryGraph
from repro.rewrite.all_any import detect_superlative
from repro.rewrite.patterns import detect_same_value_idiom


class QueryCategory(enum.Enum):
    """Fine-grained difficulty categories (Section 3.3)."""

    PATH = "path"
    SUBGRAPH = "subgraph"
    GRAPH = "graph"
    NESTED = "nested"
    AGGREGATE = "aggregate"
    IMPOSSIBLE = "impossible"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def difficulty(self) -> int:
        """A 1-6 ordinal matching the paper's escalation of difficulty."""
        order = [
            QueryCategory.PATH,
            QueryCategory.SUBGRAPH,
            QueryCategory.GRAPH,
            QueryCategory.NESTED,
            QueryCategory.AGGREGATE,
            QueryCategory.IMPOSSIBLE,
        ]
        return order.index(self) + 1


@dataclass
class Classification:
    """The category of a query plus the evidence that led to it."""

    category: QueryCategory
    reasons: List[str] = field(default_factory=list)
    graph: Optional[QueryGraph] = None

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.category.value} ({'; '.join(self.reasons)})"


def classify_graph(graph: QueryGraph) -> Classification:
    """Classify an already-built query graph."""
    reasons: List[str] = []

    if detect_same_value_idiom(graph.statement) is not None:
        reasons.append("HAVING count(distinct ...) = 1 means 'all the same'")
        return Classification(QueryCategory.IMPOSSIBLE, reasons, graph)
    superlative = detect_superlative(graph.statement)
    if superlative is not None:
        reasons.append(
            f"quantified {superlative.op} ALL comparison implies a superlative"
            f" ({superlative.superlative})"
        )
        return Classification(QueryCategory.IMPOSSIBLE, reasons, graph)

    if graph.has_aggregates() or graph.statement.group_by:
        reasons.append("the query groups and/or aggregates")
        return Classification(QueryCategory.AGGREGATE, reasons, graph)

    if graph.is_nested():
        connectors = ", ".join(edge.connector for edge in graph.nesting_edges)
        reasons.append(f"the query nests subqueries via {connectors}")
        return Classification(QueryCategory.NESTED, reasons, graph)

    if graph.has_multiple_instances():
        reasons.append("a relation participates through more than one tuple variable")
        return Classification(QueryCategory.GRAPH, reasons, graph)
    if graph.non_fk_join_edges():
        reasons.append("a join condition does not follow a foreign key")
        return Classification(QueryCategory.GRAPH, reasons, graph)
    if graph.has_cycle():
        reasons.append("the join graph contains a cycle")
        return Classification(QueryCategory.GRAPH, reasons, graph)
    if not graph.is_connected() and len(graph.classes) > 1:
        reasons.append("the join graph is disconnected (cross product)")
        return Classification(QueryCategory.GRAPH, reasons, graph)

    max_degree = max((graph.degree(b) for b in graph.bindings), default=0)
    if max_degree > 2:
        reasons.append("a relation participates in more than two joins")
        return Classification(QueryCategory.SUBGRAPH, reasons, graph)

    reasons.append("the join graph is a simple path of foreign-key joins")
    return Classification(QueryCategory.PATH, reasons, graph)


def classify_query(schema: Schema, sql_or_statement) -> Classification:
    """Parse/build/classify in one call."""
    graph = build_query_graph(schema, sql_or_statement)
    return classify_graph(graph)
