"""Relation (table) definitions for the catalog."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.catalog.attribute import Attribute
from repro.errors import DuplicateAttributeError, UnknownAttributeError


class Relation:
    """A relation schema: an ordered collection of :class:`Attribute` objects.

    Besides the structural definition the relation carries the NLG metadata
    the paper attaches to schema-graph nodes:

    ``concept``
        The *conceptual meaning* of the relation — what its tuples
        represent in the real world (``MOVIES`` conceptually represents
        "movies").  Used when a narrative prefers the concept over the
        heading attribute ("Find movies where Brad Pitt plays").
    ``heading attribute``
        The attribute most characteristic of the relation's tuples, used as
        the subject of generated sentences (``TITLE`` for ``MOVIES``).
    ``weight``
        Relative interestingness of the relation used by ranking-bounded
        narration.
    """

    def __init__(
        self,
        name: str,
        attributes: Sequence[Attribute],
        concept: Optional[str] = None,
        heading_attribute: Optional[str] = None,
        weight: float = 1.0,
        description: str = "",
        bridge: bool = False,
    ) -> None:
        if not name:
            raise ValueError("relation name must be non-empty")
        if not attributes:
            raise ValueError(f"relation {name!r} must have at least one attribute")
        self.name = name
        self.concept = concept or name.lower().rstrip("s").replace("_", " ")
        self.weight = weight
        self.description = description
        #: ``bridge`` marks pure linking relations (e.g. DIRECTED, CAST):
        #: relations that participate in translation only to connect other
        #: relations, with none of their attributes contributing to the
        #: narrative (paper, Section 2.2, "DIRECTED participates ... only for
        #: connecting the other two").
        self.bridge = bridge

        self._attributes: Dict[str, Attribute] = {}
        self._order: List[str] = []
        for attribute in attributes:
            bound = attribute.renamed(name)
            if bound.name in self._attributes:
                raise DuplicateAttributeError(
                    f"attribute {bound.name!r} defined twice on relation {name!r}"
                )
            self._attributes[bound.name] = bound
            self._order.append(bound.name)

        # Attributes never change after construction, so case-insensitive
        # lookups can go through one precomputed lowered map instead of a
        # linear scan (the validator and builder resolve columns per query).
        self._lowered: Dict[str, Attribute] = {}
        for name in self._order:  # first declaration wins on case collisions
            self._lowered.setdefault(name.lower(), self._attributes[name])
        self._heading_name = self._resolve_heading(heading_attribute)

    # ------------------------------------------------------------------
    # Attribute access
    # ------------------------------------------------------------------

    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        """The attributes of the relation, in declaration order."""
        return tuple(self._attributes[name] for name in self._order)

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(self._order)

    def has_attribute(self, name: str) -> bool:
        return self._find(name) is not None

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by (case-insensitive) name."""
        found = self._find(name)
        if found is None:
            raise UnknownAttributeError(
                f"relation {self.name!r} has no attribute {name!r}"
                f" (available: {', '.join(self._order)})"
            )
        return found

    def _find(self, name: str) -> Optional[Attribute]:
        found = self._attributes.get(name)
        if found is not None:
            return found
        return self._lowered.get(name.lower())

    # ------------------------------------------------------------------
    # Keys and NLG metadata
    # ------------------------------------------------------------------

    @property
    def primary_key(self) -> Tuple[Attribute, ...]:
        """The primary-key attributes (possibly empty for keyless relations)."""
        return tuple(a for a in self.attributes if a.primary_key)

    @property
    def primary_key_names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.primary_key)

    @property
    def heading_attribute(self) -> Attribute:
        """The heading attribute used as sentence subject (paper §2.2)."""
        return self._attributes[self._heading_name]

    def _resolve_heading(self, requested: Optional[str]) -> str:
        if requested is not None:
            found = self._find(requested)
            if found is None:
                raise UnknownAttributeError(
                    f"heading attribute {requested!r} not found on relation {self.name!r}"
                )
            return found.name
        flagged = [a.name for a in self.attributes if a.heading]
        if flagged:
            return flagged[0]
        # Heuristic fallback: prefer a text attribute that is not part of the
        # key (a name/title like column), then the first non-key attribute,
        # then the first attribute.
        non_key_text = [
            a.name
            for a in self.attributes
            if not a.primary_key and a.dtype.value == "text"
        ]
        if non_key_text:
            return non_key_text[0]
        non_key = [a.name for a in self.attributes if not a.primary_key]
        if non_key:
            return non_key[0]
        return self._order[0]

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.has_attribute(name)

    def __iter__(self) -> Iterable[Attribute]:
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self._order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.name == other.name and self.attributes == other.attributes

    def __hash__(self) -> int:
        return hash((self.name, self.attribute_names))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        cols = ", ".join(self._order)
        return f"Relation({self.name}: {cols})"
