"""Narratives for derived data: schemas, statistics, histograms.

Section 2.1 extends the idea of translating data "to all other forms of
primary or derived data that a database may contain.  Database samples,
histograms, data distribution approximations ... Describing the schema
itself ... User profiles ... and other forms of metadata".  This module
covers the schema, its row counts and histograms of numeric values.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.catalog.schema import Schema
from repro.lexicon.lexicon import Lexicon, default_lexicon
from repro.lexicon.morphology import join_list, number_word, pluralize
from repro.nlg.realize import realize_paragraph
from repro.storage.database import Database


def describe_schema(schema: Schema, lexicon: Optional[Lexicon] = None) -> str:
    """A textual description of the schema's entities and relationships."""
    lexicon = lexicon or default_lexicon(schema)
    sentences: List[str] = []
    concepts = [
        lexicon.concept_plural(relation.name)
        for relation in schema.relations
        if not relation.bridge
    ]
    sentences.append(
        f"The {schema.name} database stores information about {join_list(concepts)}"
    )
    for relation in schema.relations:
        if relation.bridge:
            continue
        attributes = [
            lexicon.caption(relation.name, a.name)
            for a in relation.attributes
            if not a.primary_key
        ]
        if attributes:
            sentences.append(
                f"Each {lexicon.concept(relation.name)} has {join_list(attributes)}"
            )
    for fk in schema.foreign_keys:
        source = schema.relation(fk.source_relation)
        target = schema.relation(fk.target_relation)
        verb = fk.verb_phrase or "is related to"
        if source.bridge:
            continue
        sentences.append(
            f"A {lexicon.concept(source.name)} {verb}"
            f" {pluralize(lexicon.concept(target.name))}"
        )
    bridge_links = _bridge_sentences(schema, lexicon)
    sentences.extend(bridge_links)
    return realize_paragraph(sentences)


def _bridge_sentences(schema: Schema, lexicon: Lexicon) -> List[str]:
    """Describe many-to-many relationships expressed through bridge relations."""
    sentences = []
    for relation in schema.relations:
        if not relation.bridge:
            continue
        targets = [fk.target_relation for fk in schema.foreign_keys_from(relation.name)]
        if len(targets) < 2:
            continue
        endpoints = [lexicon.concept_plural(t) for t in targets[:2]]
        sentences.append(
            f"{endpoints[0].capitalize()} are connected to {endpoints[1]}"
            f" through the {relation.name} relationship"
        )
    return sentences


def describe_statistics(database: Database, lexicon: Optional[Lexicon] = None) -> str:
    """A short narrative of the database's size (row counts per relation)."""
    lexicon = lexicon or default_lexicon(database.schema)
    parts = []
    for relation in database.schema.relations:
        if relation.bridge:
            continue
        count = len(database.table(relation.name))
        noun = lexicon.concept_plural(relation.name) if count != 1 else lexicon.concept(relation.name)
        parts.append(f"{number_word(count)} {noun}")
    return realize_paragraph([f"The database currently describes {join_list(parts)}"])


def describe_histogram(
    values: Sequence[float],
    subject: str,
    bucket_count: int = 4,
) -> str:
    """Narrate an equi-width histogram over numeric values.

    Used for the paper's "histograms, data distribution approximations"
    motivation: e.g. movie release years → "Most movies (5 of 9) were
    released between 1995 and 2005".
    """
    cleaned = sorted(v for v in values if v is not None)
    if not cleaned:
        return realize_paragraph([f"There are no {subject} values to summarise"])
    low, high = cleaned[0], cleaned[-1]
    if low == high:
        return realize_paragraph(
            [f"All {len(cleaned)} {subject} values equal {_fmt_number(low)}"]
        )
    width = (high - low) / bucket_count
    buckets = []
    for index in range(bucket_count):
        start = low + index * width
        end = high if index == bucket_count - 1 else low + (index + 1) * width
        members = [
            v for v in cleaned
            if (v >= start and (v < end or (index == bucket_count - 1 and v <= end)))
        ]
        buckets.append((start, end, len(members)))
    start, end, count = max(buckets, key=lambda b: b[2])
    sentences = [
        f"The {subject} values range from {_fmt_number(low)} to {_fmt_number(high)}",
        f"most of them ({count} of {len(cleaned)}) fall between"
        f" {_fmt_number(start)} and {_fmt_number(end)}",
    ]
    return realize_paragraph(sentences)


def _fmt_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.1f}"
