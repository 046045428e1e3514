"""The database schema graph of Section 2.2, derived from a catalog schema."""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Tuple

from repro.catalog.schema import Schema
from repro.graph.edges import JoinEdge, ProjectionEdge
from repro.graph.nodes import AttributeNode, RelationNode


class SchemaGraph:
    """Graph view of a schema: relation/attribute nodes, projection/join edges.

    The graph is the structure the content translator traverses (Section
    2.2) and the structure query graphs are validated against (Section
    3.3: path and subgraph queries are exactly those whose query graph is
    a path/subgraph of this graph).
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._relation_nodes: Dict[str, RelationNode] = {}
        self._attribute_nodes: Dict[str, AttributeNode] = {}
        self._projection_edges: List[ProjectionEdge] = []
        self._join_edges: List[JoinEdge] = []
        self._build()

    def _build(self) -> None:
        for relation in self.schema.relations:
            self._relation_nodes[relation.name] = RelationNode(relation)
            for attribute in relation.attributes:
                node = AttributeNode(attribute)
                self._attribute_nodes[node.key] = node
                self._projection_edges.append(
                    ProjectionEdge(
                        relation_name=relation.name,
                        attribute_name=attribute.name,
                        weight=attribute.weight,
                    )
                )
        for fk in self.schema.foreign_keys:
            self._join_edges.append(
                JoinEdge(
                    source_relation=fk.source_relation,
                    target_relation=fk.target_relation,
                    foreign_key=fk,
                    weight=fk.weight,
                )
            )
        # The schema (and therefore the graph) is immutable, so the
        # structural lookups the narrator and classifiers hammer —
        # adjacency and incident edges — are precomputed here, and path
        # queries are memoized below.
        self._join_edges_of: Dict[str, Tuple[JoinEdge, ...]] = {
            r.name: () for r in self.schema.relations
        }
        self._neighbours: Dict[str, Tuple[str, ...]] = {
            r.name: () for r in self.schema.relations
        }
        for edge in self._join_edges:
            for name in self._join_edges_of:
                if edge.touches(name):
                    self._join_edges_of[name] += (edge,)
                    other = edge.other(name)
                    if other != name and other not in self._neighbours[name]:
                        self._neighbours[name] += (other,)
        self._path_cache: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        self._central: Optional[RelationNode] = None

    # ------------------------------------------------------------------
    # Node access
    # ------------------------------------------------------------------

    @property
    def relation_nodes(self) -> Tuple[RelationNode, ...]:
        return tuple(self._relation_nodes[name] for name in self.schema.relation_names)

    @property
    def attribute_nodes(self) -> Tuple[AttributeNode, ...]:
        return tuple(self._attribute_nodes.values())

    def relation_node(self, name: str) -> RelationNode:
        canonical = self.schema.relation(name).name
        return self._relation_nodes[canonical]

    # ------------------------------------------------------------------
    # Edge access
    # ------------------------------------------------------------------

    @property
    def projection_edges(self) -> Tuple[ProjectionEdge, ...]:
        return tuple(self._projection_edges)

    @property
    def join_edges(self) -> Tuple[JoinEdge, ...]:
        return tuple(self._join_edges)

    def join_edges_of(self, relation_name: str) -> Tuple[JoinEdge, ...]:
        """All join edges incident to ``relation_name`` (either direction)."""
        canonical = self.schema.relation(relation_name).name
        return self._join_edges_of[canonical]

    def neighbours(self, relation_name: str) -> Tuple[str, ...]:
        """Relations joined to ``relation_name`` by at least one join edge."""
        canonical = self.schema.relation(relation_name).name
        return self._neighbours[canonical]

    # ------------------------------------------------------------------
    # Graph-level helpers
    # ------------------------------------------------------------------

    def degree(self, relation_name: str) -> int:
        return len(self.join_edges_of(relation_name))

    def central_relation(self) -> RelationNode:
        """The relation used as the default starting point of a traversal.

        "A simple DFS-like traversal starting from a central point of
        interest" (Section 2.2).  We pick the non-bridge relation with the
        highest (weight, degree) pair, which for the movie schema is MOVIES.
        """
        if self._central is None:
            candidates = [n for n in self.relation_nodes if not n.is_bridge]
            if not candidates:
                candidates = list(self.relation_nodes)
            self._central = max(
                candidates, key=lambda n: (n.weight, self.degree(n.name), n.name)
            )
        return self._central

    def shortest_path(self, start: str, end: str) -> Tuple[str, ...]:
        """Relation names along a shortest join path from ``start`` to ``end``.

        Returns an empty tuple when the relations are not connected.  Used
        by the content narrator to bridge two relations of interest (e.g.
        DIRECTOR and MOVIES are bridged through DIRECTED).
        """
        source = self.schema.relation(start).name
        target = self.schema.relation(end).name
        cached = self._path_cache.get((source, target))
        if cached is not None:
            return cached
        path = self._shortest_path_uncached(source, target)
        self._path_cache[(source, target)] = path
        return path

    def _shortest_path_uncached(self, source: str, target: str) -> Tuple[str, ...]:
        if source == target:
            return (source,)
        parents: Dict[str, str] = {}
        frontier = [source]
        seen = {source}
        while frontier:
            next_frontier: List[str] = []
            for current in frontier:
                for neighbour in self.neighbours(current):
                    if neighbour in seen:
                        continue
                    parents[neighbour] = current
                    if neighbour == target:
                        return self._unwind(parents, source, target)
                    seen.add(neighbour)
                    next_frontier.append(neighbour)
            frontier = next_frontier
        return ()

    def _unwind(self, parents: Dict[str, str], source: str, target: str) -> Tuple[str, ...]:
        path = [target]
        while path[-1] != source:
            path.append(parents[path[-1]])
        return tuple(reversed(path))

    # ------------------------------------------------------------------
    # Rendering (Figure 1)
    # ------------------------------------------------------------------

    def to_dot(self, include_attributes: bool = True) -> str:
        """Render the schema graph in Graphviz DOT format (Figure 1)."""
        lines = [f'digraph "{self.schema.name}" {{', "  rankdir=LR;"]
        for node in self.relation_nodes:
            lines.append(f'  "{node.name}" [shape=box, style=bold];')
        if include_attributes:
            for edge in self._projection_edges:
                attr_id = f"{edge.relation_name}.{edge.attribute_name}"
                lines.append(f'  "{attr_id}" [shape=ellipse, label="{edge.attribute_name}"];')
                lines.append(f'  "{edge.relation_name}" -> "{attr_id}" [style=dashed];')
        for edge in self._join_edges:
            label = edge.foreign_key.display_name
            lines.append(
                f'  "{edge.source_relation}" -> "{edge.target_relation}" [label="{label}"];'
            )
        lines.append("}")
        return "\n".join(lines)

    def summary(self) -> str:
        """A one-paragraph textual summary of the graph (used by Figure 1 bench)."""
        relations = ", ".join(r.name for r in self.relation_nodes)
        return (
            f"Schema graph of {self.schema.name!r}: {len(self.relation_nodes)} relation"
            f" nodes ({relations}), {len(self.attribute_nodes)} attribute nodes,"
            f" {len(self._projection_edges)} projection edges and"
            f" {len(self._join_edges)} join edges."
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"SchemaGraph({self.schema.name}: {len(self.relation_nodes)} relations,"
            f" {len(self._join_edges)} join edges)"
        )


#: One shared graph per schema: the graph is immutable and schema-derived,
#: so narrators and benches can reuse one instance (and its memoized paths)
#: instead of rebuilding adjacency per call.
_SHARED_GRAPHS: "weakref.WeakKeyDictionary[Schema, SchemaGraph]" = (
    weakref.WeakKeyDictionary()
)
_SHARED_GRAPHS_LOCK = threading.Lock()


def graph_for(schema: Schema) -> SchemaGraph:
    """The shared (memoizing) schema graph for ``schema``.

    The graph's adjacency is precomputed and immutable; its path memos
    are filled by single-key dict writes, which are safe to race (the
    worst case is a duplicate computation of the same path).  Only the
    schema → graph map itself needs the lock.
    """
    with _SHARED_GRAPHS_LOCK:
        graph = _SHARED_GRAPHS.get(schema)
        if graph is None:
            graph = SchemaGraph(schema)
            _SHARED_GRAPHS[schema] = graph
        return graph


def build_schema_graph(schema: Schema) -> SchemaGraph:
    """Build the schema graph for ``schema``."""
    return SchemaGraph(schema)
