"""Surface realisation: clauses and phrases to polished sentences."""

from __future__ import annotations

from typing import Iterable, List, Union

from repro.lexicon.morphology import capitalize_first, sentence_case, strip_extra_spaces
from repro.nlg.clause import Clause, EntityPhrase

Renderable = Union[str, Clause, EntityPhrase]


def render(item: Renderable) -> str:
    """Render a clause, entity phrase or plain string to text."""
    if isinstance(item, (Clause, EntityPhrase)):
        return item.render()
    return strip_extra_spaces(item)


def realize_sentence(item: Renderable) -> str:
    """One finished sentence: capitalised, single spaces, final period."""
    text = render(item)
    if not text:
        return ""
    text = capitalize_first(text)
    if text[-1] not in ".!?":
        text += "."
    return text


def realize_sentences(items: Iterable[Renderable]) -> List[str]:
    """Realise each item as its own sentence, dropping empty ones."""
    return sentence_case(render(item) for item in items)


def realize_paragraph(items: Iterable[Renderable]) -> str:
    """Realise the items as sentences and join them into one paragraph."""
    return " ".join(realize_sentences(items))


def relative_clause(verb_phrase: str, pronoun: str = "who") -> str:
    """A relative clause from a predicate: "was born in Italy" → "who was born in Italy"."""
    cleaned = strip_extra_spaces(verb_phrase)
    if not cleaned:
        return ""
    return f"{pronoun} {cleaned}"


def attach_relative(head: str, predicate: str, pronoun: str = "who") -> EntityPhrase:
    """Attach a predicate to an entity head as a relative clause."""
    return EntityPhrase(head=head, relative=relative_clause(predicate, pronoun=pronoun))


def sentence_count(text: str) -> int:
    """Rough sentence count (used by evaluation metrics and size limits)."""
    return sum(1 for ch in text if ch in ".!?")


def word_count(text: str) -> int:
    return len([w for w in text.split() if any(c.isalnum() for c in w)])
