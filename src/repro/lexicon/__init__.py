"""Lexicon and morphology helpers for natural-language generation."""

from repro.lexicon.lexicon import Lexicon, default_lexicon
from repro.lexicon.morphology import (
    capitalize_first,
    join_list,
    number_word,
    pluralize,
    sentence_case,
    strip_extra_spaces,
)

__all__ = [
    "Lexicon",
    "capitalize_first",
    "default_lexicon",
    "join_list",
    "number_word",
    "pluralize",
    "sentence_case",
    "strip_extra_spaces",
]
