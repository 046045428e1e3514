"""Small English morphology helpers used by surface realisation.

Nothing here aims at linguistic completeness; the rules cover the
vocabulary that database schemas produce (concept nouns, attribute
captions) well enough for the paper's narratives.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, List, Sequence

_IRREGULAR_PLURALS = {
    "person": "people",
    "child": "children",
    "man": "men",
    "woman": "women",
    "foot": "feet",
    "tooth": "teeth",
    "mouse": "mice",
    "goose": "geese",
    "datum": "data",
    "medium": "media",
    "index": "indexes",  # database usage
    "schema": "schemas",
    "criterion": "criteria",
    "analysis": "analyses",
    # Compound -man nouns pluralise the embedded "man"; the generic rules
    # below cannot know that ("chairman" + s reads as a typo).
    "chairman": "chairmen",
    "spokesman": "spokesmen",
    "salesman": "salesmen",
    "businessman": "businessmen",
    "craftsman": "craftsmen",
    "statesman": "statesmen",
    "fisherman": "fishermen",
    "nobleman": "noblemen",
    "bannerman": "bannermen",
    "swordsman": "swordsmen",
}

_UNCOUNTABLE = {"information", "cast", "staff", "metadata", "data", "news", "series"}

# The f -> ves mutation is lexical, not productive: "wolf" takes it but
# "chief", "belief" and "tariff" do not.  Suffix matching keeps compounds
# working ("direwolf" -> "direwolves", "bookshelf" -> "bookshelves").
_F_TO_VES_SUFFIXES = (
    "wolf", "shelf", "leaf", "thief", "half", "calf", "elf", "loaf",
    "scarf", "sheaf", "hoof", "dwarf",
)
_FE_TO_VES_SUFFIXES = ("wife", "knife", "life")

# Likewise o -> oes: "hero"/"potato" take -es, but loanwords and clipped
# forms ("video", "photo", "piano", "logo") take plain -s.
_O_TO_OES_SUFFIXES = (
    "hero", "echo", "potato", "tomato", "veto", "torpedo", "embargo",
    "domino", "mosquito",
)

_VOWELS = "aeiou"


def _match_case(original: str, plural: str) -> str:
    """Carry the original's initial capitalisation over to the plural form."""
    if original[:1].isupper():
        return plural[:1].upper() + plural[1:]
    return plural


def pluralize(noun: str, count: int = 2) -> str:
    """The plural of ``noun`` (returns it unchanged when ``count == 1``)."""
    if count == 1 or not noun:
        return noun
    return _pluralize_many(noun)


@lru_cache(maxsize=2048)
def _pluralize_many(noun: str) -> str:
    """The ``count != 1`` branch of :func:`pluralize`, memoized.

    Narration pluralises the same small set of concept nouns and captions
    over and over; the rule cascade below (regexes included) runs once per
    distinct noun per process.
    """
    lowered = noun.lower()
    if lowered in _UNCOUNTABLE:
        return noun
    if lowered in _IRREGULAR_PLURALS:
        return _match_case(noun, _IRREGULAR_PLURALS[lowered])
    if " " in noun:
        head, _, tail = noun.rpartition(" ")
        return f"{head} {_pluralize_many(tail)}"
    if re.search(r"(s|x|z|ch|sh)$", lowered):
        return noun + "es"
    if lowered.endswith("y") and len(lowered) > 1 and lowered[-2] not in _VOWELS:
        return noun[:-1] + "ies"
    if lowered.endswith(_F_TO_VES_SUFFIXES):
        return noun[:-1] + "ves"
    if lowered.endswith(_FE_TO_VES_SUFFIXES):
        return noun[:-2] + "ves"
    if lowered.endswith(_O_TO_OES_SUFFIXES):
        return noun + "es"
    return noun + "s"


def capitalize_first(text: str) -> str:
    """Capitalise the first alphabetic character, leaving the rest intact.

    Sentences that start with a number ("12 more rows are not shown") are
    left alone: capitalising a word in the middle reads worse than starting
    with the digit.
    """
    for index, ch in enumerate(text):
        if ch.isdigit():
            return text
        if ch.isalpha():
            return text[:index] + ch.upper() + text[index + 1 :]
    return text


def join_list(items: Sequence[str], conjunction: str = "and", oxford: bool = True) -> str:
    """Join items as English prose: "a", "a and b", "a, b, and c"."""
    items = [item for item in items if item]
    if not items:
        return ""
    if len(items) == 1:
        return items[0]
    if len(items) == 2:
        return f"{items[0]} {conjunction} {items[1]}"
    comma = "," if oxford else ""
    return ", ".join(items[:-1]) + f"{comma} {conjunction} {items[-1]}"


@lru_cache(maxsize=1024)
def number_word(value: int) -> str:
    """Spell out small integers ("more than one genre"), else use digits."""
    words = {
        0: "zero", 1: "one", 2: "two", 3: "three", 4: "four", 5: "five",
        6: "six", 7: "seven", 8: "eight", 9: "nine", 10: "ten",
        11: "eleven", 12: "twelve",
    }
    return words.get(value, str(value))


def strip_extra_spaces(text: str) -> str:
    """Collapse repeated spaces and trim space before punctuation."""
    collapsed = re.sub(r"\s+", " ", text).strip()
    collapsed = re.sub(r"\s+([,.;:!?])", r"\1", collapsed)
    return collapsed


def sentence_case(sentences: Iterable[str]) -> List[str]:
    """Capitalise and terminate each sentence with a period when needed."""
    out: List[str] = []
    for sentence in sentences:
        cleaned = strip_extra_spaces(sentence)
        if not cleaned:
            continue
        cleaned = capitalize_first(cleaned)
        if cleaned[-1] not in ".!?":
            cleaned += "."
        out.append(cleaned)
    return out
