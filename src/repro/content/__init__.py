"""Database-content translation (Section 2 of the paper)."""

from repro.content.narrator import ContentNarrator
from repro.content.navigation import find_by_heading, related_rows
from repro.content.patterns import (
    SynthesisMode,
    relationship_sentence,
    split_pattern_clause,
    unary_pattern_clauses,
)
from repro.content.personalization import DEFAULT_PROFILE, UserProfile
from repro.content.presets import (
    MOVIE_LIST_DEFINITION,
    NarrationSpec,
    default_spec,
    employee_spec,
    library_spec,
    movie_spec,
)
from repro.content.ranking import (
    RankedTuple,
    coverage_plan,
    rank_relations,
    rank_tuples,
    score_tuple,
    tuple_connectivity,
)
from repro.content.single_relation import (
    TupleStyle,
    attribute_clause,
    heading_clause,
    heading_value,
    tuple_clauses,
)
from repro.content.summarizer import (
    describe_histogram,
    describe_schema,
    describe_statistics,
)

__all__ = [
    "ContentNarrator",
    "DEFAULT_PROFILE",
    "MOVIE_LIST_DEFINITION",
    "NarrationSpec",
    "RankedTuple",
    "SynthesisMode",
    "TupleStyle",
    "UserProfile",
    "attribute_clause",
    "coverage_plan",
    "default_spec",
    "describe_histogram",
    "describe_schema",
    "describe_statistics",
    "employee_spec",
    "find_by_heading",
    "heading_clause",
    "heading_value",
    "library_spec",
    "movie_spec",
    "rank_relations",
    "rank_tuples",
    "related_rows",
    "relationship_sentence",
    "score_tuple",
    "split_pattern_clause",
    "tuple_clauses",
    "tuple_connectivity",
    "unary_pattern_clauses",
]
