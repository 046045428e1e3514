"""Personalised narration profiles (paper, Section 2.2).

"It is possible to have personalized settings (e.g., different heading
attributes for relations or different weights on nodes and edges) in order
to produce customized narratives for different users or user groups."

A :class:`UserProfile` carries exactly those settings: heading-attribute
overrides, relation/attribute weight overrides, relations to ignore, and a
length budget.  The content narrator consults the profile at every
decision point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.catalog.relation import Relation
from repro.nlg.document import LengthBudget


@dataclass
class UserProfile:
    """Per-user narration preferences."""

    name: str = "default"
    #: relation name -> attribute name to use as the sentence subject.
    heading_overrides: Dict[str, str] = field(default_factory=dict)
    #: relation name -> weight override (higher = more interesting).
    relation_weights: Dict[str, float] = field(default_factory=dict)
    #: (relation, attribute) -> weight override.
    attribute_weights: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: relations never mentioned in narratives for this user.
    excluded_relations: Set[str] = field(default_factory=set)
    #: default length budget applied when the caller does not pass one.
    budget: LengthBudget = field(default_factory=LengthBudget)
    #: maximum number of tuples listed per relation before truncation.
    max_tuples_per_relation: Optional[int] = None

    # ------------------------------------------------------------------

    def heading_attribute(self, relation: Relation) -> str:
        """The attribute used as sentence subject for ``relation``."""
        override = self.heading_overrides.get(relation.name)
        if override and relation.has_attribute(override):
            return relation.attribute(override).name
        return relation.heading_attribute.name

    def relation_weight(self, relation: Relation) -> float:
        return self.relation_weights.get(relation.name, relation.weight)

    def attribute_weight(self, relation: Relation, attribute_name: str) -> float:
        attr = relation.attribute(attribute_name)
        return self.attribute_weights.get((relation.name, attr.name), attr.weight)

    def includes(self, relation_name: str) -> bool:
        return relation_name not in self.excluded_relations

    # ------------------------------------------------------------------


DEFAULT_PROFILE = UserProfile()
