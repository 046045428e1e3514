"""Database schema graph (Section 2.2): nodes, edges, traversal, patterns."""

from repro.graph.edges import JoinEdge, ProjectionEdge
from repro.graph.nodes import AttributeNode, GraphNode, RelationNode
from repro.graph.schema_graph import SchemaGraph, build_schema_graph
from repro.graph.traversal import (
    PatternKind,
    StructuralPattern,
    TraversalResult,
    TraversalStep,
    detect_patterns,
    dfs_traversal,
)

__all__ = [
    "AttributeNode",
    "GraphNode",
    "JoinEdge",
    "PatternKind",
    "ProjectionEdge",
    "RelationNode",
    "SchemaGraph",
    "StructuralPattern",
    "TraversalResult",
    "TraversalStep",
    "build_schema_graph",
    "detect_patterns",
    "dfs_traversal",
]
