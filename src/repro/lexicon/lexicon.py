"""The lexicon: how schema elements are referred to in natural language.

The translators need three kinds of lexical knowledge, all of which the
paper assumes are available ("Without loss of generality we may assume
that the names of relations and attributes are meaningful"):

* the *concept noun* of a relation (MOVIES → "movie"),
* the *caption* of an attribute (bdate → "birth date"),
* the *verb phrase* of a relationship (CAST joining ACTOR → "plays in").

Defaults are derived from catalog metadata; entries can be overridden so
different installations (or personalised profiles) phrase things their own
way.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.catalog.schema import Schema
from repro.lexicon.morphology import pluralize


@dataclass(eq=False)
class Lexicon:
    """Lexical choices for one schema.

    Identity-based equality/hash: a lexicon is a mutable per-schema
    registry (and a weak-dict key for the translator's plan stores), not a
    value object.
    """

    schema: Schema
    concept_overrides: Dict[str, str] = field(default_factory=dict)
    plural_overrides: Dict[str, str] = field(default_factory=dict)
    caption_overrides: Dict[Tuple[str, str], str] = field(default_factory=dict)
    verb_overrides: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: Resolved-lookup memo (cleared by the setters).  Lexicon lookups sit
    #: inside the per-constraint narration loops, so the schema/override
    #: resolution runs once per distinct key instead of once per phrase.
    _memo: Dict[Tuple, str] = field(default_factory=dict, compare=False, repr=False)
    #: Monotonic counter bumped by every setter.  Caches keyed on lexical
    #: output (the translator's shape-keyed phrase plans) compare versions
    #: instead of fingerprinting the override dicts.
    version: int = field(default=0, compare=False, repr=False)

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------

    def concept(self, relation: str) -> str:
        """The singular concept noun for ``relation`` ("movie", "actor")."""
        key = ("concept", relation)
        cached = self._memo.get(key)
        if cached is None:
            rel = self.schema.relation(relation)
            cached = self.concept_overrides.get(rel.name, rel.concept)
            self._memo[key] = cached
        return cached

    def concept_plural(self, relation: str) -> str:
        """The plural concept noun ("movies", "actors")."""
        key = ("concept_plural", relation)
        cached = self._memo.get(key)
        if cached is None:
            rel = self.schema.relation(relation)
            if rel.name in self.plural_overrides:
                cached = self.plural_overrides[rel.name]
            else:
                cached = pluralize(self.concept(relation))
            self._memo[key] = cached
        return cached

    def set_concept(self, relation: str, singular: str, plural: Optional[str] = None) -> None:
        rel = self.schema.relation(relation)
        self.concept_overrides[rel.name] = singular
        if plural is not None:
            self.plural_overrides[rel.name] = plural
        self._memo.clear()
        self.version += 1

    # ------------------------------------------------------------------
    # Attributes
    # ------------------------------------------------------------------

    def caption(self, relation: str, attribute: str) -> str:
        """The phrase used for an attribute ("release year", "birth date")."""
        key = ("caption", relation, attribute)
        cached = self._memo.get(key)
        if cached is None:
            rel = self.schema.relation(relation)
            attr = rel.attribute(attribute)
            cached = self.caption_overrides.get((rel.name, attr.name), attr.display_caption)
            self._memo[key] = cached
        return cached

    def set_caption(self, relation: str, attribute: str, caption: str) -> None:
        rel = self.schema.relation(relation)
        attr = rel.attribute(attribute)
        self.caption_overrides[(rel.name, attr.name)] = caption
        self._memo.clear()
        self.version += 1

    def heading_caption(self, relation: str) -> str:
        """The caption of the relation's heading attribute."""
        rel = self.schema.relation(relation)
        return self.caption(relation, rel.heading_attribute.name)

    # ------------------------------------------------------------------
    # Relationships
    # ------------------------------------------------------------------

    def relationship_verb(self, source: str, target: str) -> Optional[str]:
        """The verb phrase describing the FK relationship source → target.

        Looks at FKs in both directions; an override keyed by the pair
        wins.  Returns ``None`` when the relations are unrelated.
        """
        key = ("verb", source, target)
        if key in self._memo:
            return self._memo[key]
        src = self.schema.relation(source).name
        dst = self.schema.relation(target).name
        verb: Optional[str] = None
        if (src, dst) in self.verb_overrides:
            verb = self.verb_overrides[(src, dst)]
        elif (dst, src) in self.verb_overrides:
            verb = self.verb_overrides[(dst, src)]
        else:
            for fk in self.schema.foreign_keys_between(src, dst):
                if fk.verb_phrase:
                    verb = fk.verb_phrase
                    break
        self._memo[key] = verb
        return verb

    def set_relationship_verb(self, source: str, target: str, verb: str) -> None:
        src = self.schema.relation(source).name
        dst = self.schema.relation(target).name
        self.verb_overrides[(src, dst)] = verb
        self._memo.clear()
        self.version += 1

    # ------------------------------------------------------------------


def default_lexicon(schema: Schema) -> Lexicon:
    """A lexicon containing only metadata-derived defaults."""
    return Lexicon(schema=schema)


#: One shared default lexicon per schema, like ``graph_for``/``builder_for``.
#: The query translator uses this when no explicit lexicon/spec is given,
#: so its per-schema compiled state (shape-keyed phrase plans, memoized
#: lookups) is shared across translator instances.  Overrides applied to a
#: shared default are therefore visible to every translator of the schema;
#: callers needing a private lexicon should pass ``default_lexicon(schema)``
#: explicitly.
_SHARED_DEFAULTS: "weakref.WeakKeyDictionary[Schema, Lexicon]" = (
    weakref.WeakKeyDictionary()
)
_SHARED_DEFAULTS_LOCK = threading.Lock()


def default_lexicon_for(schema: Schema) -> Lexicon:
    """The shared metadata-derived lexicon for ``schema``."""
    with _SHARED_DEFAULTS_LOCK:
        lexicon = _SHARED_DEFAULTS.get(schema)
        if lexicon is None:
            lexicon = Lexicon(schema=schema)
            _SHARED_DEFAULTS[schema] = lexicon
        return lexicon
