"""Query-to-natural-language translation (Section 3 of the paper)."""

from repro.query_nl.aggregate import AggregateTranslation, AggregateTranslator
from repro.query_nl.dml import DmlTranslator
from repro.query_nl.empty_answer import AnswerExplainer, EmptyAnswerExplanation
from repro.query_nl.impossible import ImpossibleTranslation, ImpossibleTranslator
from repro.query_nl.nested import NestedTranslation, NestedTranslator
from repro.query_nl.procedural import procedural_translation
from repro.query_nl.spj import SpjTranslation, SpjTranslator
from repro.query_nl.translator import QueryTranslation, QueryTranslator, translate_query

__all__ = [
    "AggregateTranslation",
    "AggregateTranslator",
    "AnswerExplainer",
    "DmlTranslator",
    "EmptyAnswerExplanation",
    "ImpossibleTranslation",
    "ImpossibleTranslator",
    "NestedTranslation",
    "NestedTranslator",
    "QueryTranslation",
    "QueryTranslator",
    "SpjTranslation",
    "SpjTranslator",
    "procedural_translation",
    "translate_query",
]
