"""Natural-language generation core: clauses, aggregation, realisation, planning."""

from repro.nlg.aggregation import merge_clauses
from repro.nlg.clause import Clause, EntityPhrase
from repro.nlg.document import (
    DocumentPlan,
    LengthBudget,
    PlannedSentence,
    collect_streaming,
)
from repro.nlg.realize import (
    attach_relative,
    realize_paragraph,
    realize_sentence,
    realize_sentences,
    relative_clause,
    render,
    sentence_count,
    word_count,
)

__all__ = [
    "Clause",
    "DocumentPlan",
    "EntityPhrase",
    "LengthBudget",
    "PlannedSentence",
    "attach_relative",
    "collect_streaming",
    "merge_clauses",
    "realize_paragraph",
    "realize_sentence",
    "realize_sentences",
    "relative_clause",
    "render",
    "sentence_count",
    "word_count",
]
