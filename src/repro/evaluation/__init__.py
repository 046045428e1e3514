"""Text metrics for narratives: redundancy, compression and query coverage."""

from repro.evaluation.metrics import (
    TextMetrics,
    compression_ratio,
    coverage,
    query_coverage,
    query_elements,
    redundancy_ratio,
    tokens,
)

__all__ = [
    "TextMetrics",
    "compression_ratio",
    "coverage",
    "query_coverage",
    "query_elements",
    "redundancy_ratio",
    "tokens",
]
