"""Registry associating template labels with schema-graph elements.

"The solution suggests that both nodes and edges are annotated by
appropriate template labels.  These labels are assigned once, e.g., by the
designer, at an initial design phase, and are instantiated at query time"
(Section 2.2).  The registry stores those labels keyed by graph element:

* relation node (``relation``) — the sentence template describing a tuple,
* projection edge (``relation``, ``attribute``) — the phrase describing an
  attribute of a tuple ("the YEAR of a MOVIE(.TITLE)"),
* join edge (``source``, ``target``) — the phrase describing the
  relationship between two relations' heading attributes,
* list templates keyed by name (``MOVIE_LIST``).

Default labels are derived automatically from the schema's NLG metadata
(concepts, captions, heading attributes, FK verb phrases) so the system
works on unannotated schemas; a designer can override any label.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.catalog.relation import Relation
from repro.catalog.schema import Schema
from repro.errors import MissingTemplateError
from repro.oracle import resolve_compiled_default
from repro.templates.compile import (
    CompiledListTemplate,
    CompiledTemplate,
)
from repro.templates.spec import ListTemplate, Template, slot, template


class TemplateRegistry:
    """Template labels for one schema's graph elements.

    Labels are assigned once (Section 2.2), so the registry also plays the
    role the compiled-plan cache plays on the execution side: derived
    default labels are memoized per graph element, and every label —
    designer-provided or derived — is compiled once into its
    :class:`~repro.templates.compile.CompiledTemplate` form.  Pass
    ``compile_templates=False`` to keep the interpreted path (the
    equivalence suite narrates both ways and diffs the bytes).
    """

    def __init__(self, schema: Schema, compile_templates: Optional[bool] = None) -> None:
        self.schema = schema
        # Defaults to compiled unless REPRO_ORACLE forces the interpreted
        # template walker (an explicit argument always wins).
        self.compile_templates = resolve_compiled_default(compile_templates)
        self._relation_templates: Dict[str, Template] = {}
        self._projection_templates: Dict[Tuple[str, str], Template] = {}
        self._join_templates: Dict[Tuple[str, str], Template] = {}
        self._list_templates: Dict[str, ListTemplate] = {}
        self._default_cache: Dict[Tuple, Optional[Template]] = {}
        self._compiled: Dict[int, CompiledTemplate] = {}
        self._compiled_lists: Dict[int, CompiledListTemplate] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def set_relation_template(self, relation: str, label: Template) -> None:
        self._relation_templates[self._rel(relation)] = label

    def set_projection_template(self, relation: str, attribute: str, label: Template) -> None:
        rel = self.schema.relation(relation)
        self._projection_templates[(rel.name, rel.attribute(attribute).name)] = label

    def set_join_template(self, source: str, target: str, label: Template) -> None:
        self._join_templates[(self._rel(source), self._rel(target))] = label

    def set_list_template(self, label: ListTemplate) -> None:
        self._list_templates[label.name.upper()] = label

    def _rel(self, relation: str) -> str:
        return self.schema.relation(relation).name

    # ------------------------------------------------------------------
    # Lookup (with generated defaults)
    # ------------------------------------------------------------------

    def relation_template(self, relation: str) -> Template:
        """The sentence template for a tuple of ``relation``.

        The default is "The <concept>'s <heading caption> is <HEADING>."
        style, e.g. "The director's name is Woody Allen" (Section 2.2's
        alternative (a)).
        """
        name = self._rel(relation)
        if name in self._relation_templates:
            return self._relation_templates[name]
        key = ("relation", name)
        cached = self._default_cache.get(key)
        if cached is None:
            cached = default_relation_template(self.schema.relation(name))
            self._default_cache[key] = cached
        return cached

    def projection_template(self, relation: str, attribute: str) -> Template:
        """The phrase template for a (relation, attribute) projection edge."""
        rel = self.schema.relation(relation)
        attr = rel.attribute(attribute)
        key = (rel.name, attr.name)
        if key in self._projection_templates:
            return self._projection_templates[key]
        cache_key = ("projection", rel.name, attr.name)
        cached = self._default_cache.get(cache_key)
        if cached is None:
            cached = default_projection_template(rel, attr.name)
            self._default_cache[cache_key] = cached
        return cached

    def has_join_template(self, source: str, target: str) -> bool:
        """True when a designer label exists for exactly this direction."""
        return (self._rel(source), self._rel(target)) in self._join_templates

    def join_template(
        self, source: str, target: str, allow_reverse: bool = True
    ) -> Optional[Template]:
        """The phrase template for the join edge ``source`` -> ``target``.

        Falls back to the reverse direction (unless ``allow_reverse`` is
        false), then to a default derived from the foreign key's verb
        phrase; returns ``None`` when the relations are not joined at all.
        """
        key = (self._rel(source), self._rel(target))
        if key in self._join_templates:
            return self._join_templates[key]
        reverse = (key[1], key[0])
        if allow_reverse and reverse in self._join_templates:
            return self._join_templates[reverse]
        cache_key = ("join", key[0], key[1])
        if cache_key in self._default_cache:
            return self._default_cache[cache_key]
        derived = default_join_template(self.schema, key[0], key[1])
        self._default_cache[cache_key] = derived
        return derived

    def list_template(self, name: str) -> ListTemplate:
        key = name.upper()
        if key not in self._list_templates:
            raise MissingTemplateError(f"no list template named {name!r} is registered")
        return self._list_templates[key]

    def has_list_template(self, name: str) -> bool:
        return name.upper() in self._list_templates

    # ------------------------------------------------------------------
    # Compiled forms
    # ------------------------------------------------------------------

    def compiled(self, label: Optional[Template]) -> Optional[CompiledTemplate]:
        """The compiled form of ``label``, memoized; ``None`` when compilation
        is disabled (callers then run the interpreted path) or ``label`` is
        ``None``."""
        if label is None or not self.compile_templates:
            return None
        compiled = self._compiled.get(id(label))
        if compiled is None or compiled.template is not label:
            compiled = CompiledTemplate(label)
            self._compiled[id(label)] = compiled
        return compiled

    def compiled_list(self, label: Optional[ListTemplate]) -> Optional[CompiledListTemplate]:
        """The compiled form of a list template (same contract as ``compiled``)."""
        if label is None or not self.compile_templates:
            return None
        compiled = self._compiled_lists.get(id(label))
        if compiled is None or compiled.template is not label:
            compiled = CompiledListTemplate(label)
            self._compiled_lists[id(label)] = compiled
        return compiled

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"TemplateRegistry({self.schema.name}: {len(self._relation_templates)} relation,"
            f" {len(self._projection_templates)} projection,"
            f" {len(self._join_templates)} join, {len(self._list_templates)} list labels)"
        )


# ---------------------------------------------------------------------------
# Default label derivation
# ---------------------------------------------------------------------------


def default_relation_template(relation: Relation) -> Template:
    """"The <concept>'s <heading caption> is <HEADING>"."""
    heading = relation.heading_attribute
    return template(
        f"the {relation.concept}'s {heading.display_caption} is ",
        slot(f"{relation.name}.{heading.name}"),
    )


def default_projection_template(relation: Relation, attribute: str) -> Template:
    """"<HEADING> has <attribute caption> <ATTRIBUTE>".

    The template starts with the heading slot so the single-relation
    translator can split it structurally into subject / verb / complement
    and the aggregation step can factor the subject out.
    """
    attr = relation.attribute(attribute)
    heading = relation.heading_attribute
    return template(
        slot(f"{relation.name}.{heading.name}"),
        f" has {attr.display_caption} ",
        slot(f"{relation.name}.{attr.name}"),
        verb=f"has {attr.display_caption}",
    )


def default_join_template(schema: Schema, source: str, target: str) -> Optional[Template]:
    """A join-edge phrase derived from the FK's verb phrase.

    E.g. for CAST.aid -> ACTOR.id with verb "plays in" the template reads
    "the <actor NAME> plays in the <movie TITLE>" style; without a verb
    phrase it falls back to "the <target concept> <HEADING> of the
    <source concept> <HEADING>".
    """
    fks = schema.foreign_keys_between(source, target)
    if not fks:
        return None
    fk = fks[0]
    source_rel = schema.relation(source)
    target_rel = schema.relation(target)
    source_heading = source_rel.heading_attribute
    target_heading = target_rel.heading_attribute
    verb = fk.verb_phrase or "is associated with"
    return template(
        f"the {source_rel.concept} ",
        slot(f"{source_rel.name}.{source_heading.name}"),
        f" {verb} the {target_rel.concept} ",
        slot(f"{target_rel.name}.{target_heading.name}"),
        verb=verb,
    )
