"""Foreign-key (join) relationships between catalog relations.

In the paper's schema-graph model (Section 2.2) a *join edge* emanates
from a relation node and ends at another relation node, representing a
potential join through a primary key / foreign key relationship.  The
catalog records those relationships as :class:`ForeignKey` objects; the
graph layer turns each of them into a join edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key constraint from ``source`` columns to ``target`` columns.

    ``verb_phrase`` is optional NLG metadata: the phrase that describes the
    relationship when it is verbalised, e.g. for ``DIRECTED.did ->
    DIRECTOR.id`` the phrase could be ``"directed by"``.  When absent the
    translators fall back to generic template labels.
    """

    source_relation: str
    source_attributes: Tuple[str, ...]
    target_relation: str
    target_attributes: Tuple[str, ...]
    name: Optional[str] = None
    verb_phrase: Optional[str] = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if len(self.source_attributes) != len(self.target_attributes):
            raise ValueError(
                "foreign key must have matching source/target attribute counts"
            )
        if not self.source_attributes:
            raise ValueError("foreign key must reference at least one attribute")

    @property
    def display_name(self) -> str:
        """A stable identifier for the constraint."""
        if self.name:
            return self.name
        cols = "_".join(self.source_attributes)
        return f"fk_{self.source_relation}_{cols}_{self.target_relation}".lower()

    def column_pairs(self) -> Sequence[Tuple[str, str]]:
        """Pairs of (source attribute, target attribute) joined by this FK."""
        return tuple(zip(self.source_attributes, self.target_attributes))

    def __str__(self) -> str:  # pragma: no cover - trivial
        src = ", ".join(self.source_attributes)
        dst = ", ".join(self.target_attributes)
        return f"{self.source_relation}({src}) -> {self.target_relation}({dst})"
