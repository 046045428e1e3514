"""Clause-level representation used before surface realisation.

A :class:`Clause` is a subject, a verb phrase and a list of complements
("Woody Allen" / "was born" / ["in Brooklyn, New York, USA",
"on December 1, 1935"]).  Keeping clauses structured until the last moment
is what lets the aggregation step merge clauses that share a subject and a
verb — the paper's "common expression" resolution — and what lets the
split-pattern composer attach relative clauses to entities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from repro.lexicon.morphology import strip_extra_spaces


@dataclass(frozen=True)
class Clause:
    """A simple clause: subject + verb + complements [+ conjunction for lists]."""

    subject: str
    verb: str = ""
    complements: Tuple[str, ...] = ()
    #: Optional label identifying which relation/tuple produced the clause;
    #: used by document planning and by tests, never rendered.
    about: Optional[str] = None
    #: Relative importance, used when a length budget forces dropping clauses.
    weight: float = 1.0

    def render(self) -> str:
        """The clause as plain text (no capitalisation, no final period)."""
        pieces = [self.subject, self.verb, *self.complements]
        return strip_extra_spaces(" ".join(piece for piece in pieces if piece))

    def with_extra_complements(self, extra: Sequence[str]) -> "Clause":
        return replace(self, complements=tuple(self.complements) + tuple(extra))

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.render()


@dataclass(frozen=True)
class EntityPhrase:
    """A noun phrase with an optional relative clause.

    Used by the split-pattern composer: "the director D1" + "who was born
    in Italy" renders as "the director D1 who was born in Italy".
    """

    head: str
    relative: Optional[str] = None

    def render(self) -> str:
        if self.relative:
            return strip_extra_spaces(f"{self.head} {self.relative}")
        return strip_extra_spaces(self.head)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.render()
