"""Composition of narratives for the structural patterns of Section 2.2.

* Unary pattern (Ri - Rj): the parent tuple's clauses followed by a
  relationship sentence listing the related tuples (the Woody Allen
  example), optionally followed by per-tuple detail sentences in the
  *procedural* synthesis mode.
* Split pattern (Ri < Rj1, Rj2): one sentence whose subject comes from Ri
  and whose subordinate clauses — one per partner — are combined with a
  conjunctive term ("The movie M1 involves the director D1 who was born in
  Italy and the actor A1 who is Greek").
"""

from __future__ import annotations

import enum
from typing import List, Mapping, Optional, Sequence

from repro.catalog.relation import Relation
from repro.content.personalization import DEFAULT_PROFILE, UserProfile
from repro.content.single_relation import TupleStyle, heading_value, tuple_clauses
from repro.lexicon.lexicon import Lexicon
from repro.lexicon.morphology import join_list
from repro.nlg.clause import Clause
from repro.nlg.realize import attach_relative
from repro.templates.registry import TemplateRegistry
from repro.templates.spec import SlotPart, slot, template


class SynthesisMode(enum.Enum):
    """Compact (declarative) vs procedural synthesis (Section 2.2)."""

    COMPACT = "compact"
    PROCEDURAL = "procedural"


# ---------------------------------------------------------------------------
# Unary pattern
# ---------------------------------------------------------------------------


def relationship_sentence(
    parent: Relation,
    parent_row: Mapping,
    child: Relation,
    child_rows: Sequence[Mapping],
    registry: TemplateRegistry,
    lexicon: Lexicon,
    profile: UserProfile = DEFAULT_PROFILE,
    list_template_name: Optional[str] = None,
    compact_list: bool = True,
) -> Optional[Clause]:
    """The sentence connecting a parent tuple to its related child tuples.

    When the join-edge template contains a slot naming a registered list
    template (the paper's ``MOVIE_LIST``), that slot is filled with the
    rendered list; otherwise the lexicon supplies "The <parent concept>
    <NAME> <relationship verb> the <child concept(s)> <list>" ("The
    director Woody Allen directed the movies Match Point, Melinda and
    Melinda, and Anything Else"), with "is associated with" when no verb
    is registered.
    ``compact_list`` controls whether the list items carry their extra
    attributes ("Match Point (2005)") or just the headings ("Match Point").
    """
    if not child_rows:
        return None

    # A designer label registered for the opposite direction (DIRECTOR ->
    # MOVIES when narrating a MOVIES tuple) is still usable as long as there
    # is a single related tuple: the roles are simply swapped so the sentence
    # keeps its intended subject ("As a director, Sofia Ferrara's work
    # includes Ocean Heist (2001)").
    if (
        not registry.has_join_template(parent.name, child.name)
        and registry.has_join_template(child.name, parent.name)
        and len(child_rows) == 1
    ):
        return relationship_sentence(
            child,
            child_rows[0],
            parent,
            [parent_row],
            registry,
            lexicon,
            profile=profile,
            list_template_name=list_template_name,
            compact_list=compact_list,
        )

    parent_subject = heading_value(parent, parent_row, profile)
    join_label = registry.join_template(parent.name, child.name, allow_reverse=False)

    list_name = list_template_name
    if list_name is None and join_label is not None:
        for part in join_label.parts:
            if isinstance(part, SlotPart) and registry.has_list_template(part.attribute):
                list_name = part.attribute
                break

    rendered_list = _render_child_list(
        child, child_rows, registry, profile, list_name, compact_list
    )

    if join_label is not None and list_name is not None:
        values = _join_values(parent, parent_row, child, child_rows)
        values[list_name] = rendered_list
        renderer = registry.compiled(join_label) or join_label
        text = renderer.instantiate(values, strict=False)
        return Clause(subject=text, about=f"{parent.name}->{child.name}",
                      weight=profile.relation_weight(child))

    child_noun = (
        lexicon.concept_plural(child.name)
        if len(child_rows) > 1
        else lexicon.concept(child.name)
    )
    verb = lexicon.relationship_verb(parent.name, child.name)
    text = (
        f"The {lexicon.concept(parent.name)} {parent_subject}"
        f" {verb or 'is associated with'} the {child_noun} {rendered_list}"
    )
    return Clause(subject=text, about=f"{parent.name}->{child.name}",
                  weight=profile.relation_weight(child))


def _render_child_list(
    child: Relation,
    child_rows: Sequence[Mapping],
    registry: TemplateRegistry,
    profile: UserProfile,
    list_name: Optional[str],
    compact_list: bool,
) -> str:
    if list_name is not None and registry.has_list_template(list_name) and compact_list:
        list_label = registry.list_template(list_name)
        renderer = registry.compiled_list(list_label) or list_label
        return renderer.instantiate(
            [_child_values(child, row) for row in child_rows], strict=False
        )
    headings = [heading_value(child, row, profile) for row in child_rows]
    if compact_list:
        return join_list(headings)
    return ", ".join(headings)


def _child_values(child: Relation, row: Mapping) -> dict:
    values = {}
    for attribute in child.attributes:
        values[attribute.name] = row.get(attribute.name)
        values[f"{child.name}.{attribute.name}"] = row.get(attribute.name)
    return values


def _join_values(
    parent: Relation, parent_row: Mapping, child: Relation, child_rows: Sequence[Mapping]
) -> dict:
    values = {}
    for attribute in parent.attributes:
        values[attribute.name] = parent_row.get(attribute.name)
        values[f"{parent.name}.{attribute.name}"] = parent_row.get(attribute.name)
    if child_rows:
        first = child_rows[0]
        for attribute in child.attributes:
            values.setdefault(attribute.name, first.get(attribute.name))
            values[f"{child.name}.{attribute.name}"] = first.get(attribute.name)
    return values


def unary_pattern_clauses(
    parent: Relation,
    parent_row: Mapping,
    child: Relation,
    child_rows: Sequence[Mapping],
    registry: TemplateRegistry,
    lexicon: Lexicon,
    mode: SynthesisMode = SynthesisMode.COMPACT,
    profile: UserProfile = DEFAULT_PROFILE,
    attribute_order: Optional[Sequence[str]] = None,
) -> List[Clause]:
    """The full unary-pattern narrative: parent detail + relationship [+ children].

    In compact mode the children appear only inside the relationship
    sentence's list (with their extra attributes inlined, e.g. "Match
    Point (2005)").  In procedural mode the list carries headings only and
    every child tuple then gets its own detail sentences — "a coalescence
    of several simple sentences", as the paper puts it.
    """
    clauses = tuple_clauses(
        parent,
        parent_row,
        registry,
        style=TupleStyle.FULL,
        profile=profile,
        attribute_order=attribute_order,
    )
    compact = mode is SynthesisMode.COMPACT
    connection = relationship_sentence(
        parent, parent_row, child, child_rows, registry, lexicon, profile,
        compact_list=compact,
    )
    if connection is not None:
        clauses.append(connection)
    if mode is SynthesisMode.PROCEDURAL:
        for row in child_rows:
            clauses.extend(
                tuple_clauses(child, row, registry, style=TupleStyle.FULL, profile=profile)
            )
    return clauses


# ---------------------------------------------------------------------------
# Split pattern
# ---------------------------------------------------------------------------


def split_pattern_clause(
    center: Relation,
    center_row: Mapping,
    partners: Sequence[tuple],
    registry: TemplateRegistry,
    lexicon: Lexicon,
    profile: UserProfile = DEFAULT_PROFILE,
    verb: str = "involves",
) -> Clause:
    """One sentence for a split pattern Ri < (Rj1, Rj2, ...).

    ``partners`` is a sequence of ``(relation, row)`` pairs.  Each partner
    becomes an entity phrase ("the director D1") carrying its descriptive
    content as a relative clause ("who was born in Italy"); the phrases
    are combined with a conjunctive term, exactly as the paper suggests.
    """
    subject = f"The {lexicon.concept(center.name)} {heading_value(center, center_row, profile)}"
    phrases: List[str] = []
    for partner_relation, partner_row in partners:
        head = (
            f"the {lexicon.concept(partner_relation.name)}"
            f" {heading_value(partner_relation, partner_row, profile)}"
        )
        detail_clauses = tuple_clauses(
            partner_relation,
            partner_row,
            registry,
            style=TupleStyle.FULL,
            profile=profile,
        )
        predicate = _predicate_of(detail_clauses)
        if predicate:
            phrases.append(attach_relative(head, predicate).render())
        else:
            phrases.append(head)
    combined = join_list(phrases)
    return Clause(
        subject=subject,
        verb=verb,
        complements=(combined,),
        about=center.name,
        weight=profile.relation_weight(center),
    )


def _predicate_of(clauses: Sequence[Clause]) -> str:
    """The predicate (verb + complements) of the first informative clause."""
    for clause in clauses:
        if clause.verb:
            return " ".join([clause.verb, *clause.complements]).strip()
    return ""

