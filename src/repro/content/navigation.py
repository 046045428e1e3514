"""Data navigation along foreign-key paths.

The content narrator frequently needs "the MOVIES rows related to this
DIRECTOR row through DIRECTED" — i.e. to follow a path of relations in the
schema graph and collect the rows reachable from a starting tuple.  Bridge
relations along the way contribute nothing to the narrative (paper,
Section 2.2: DIRECTED "participates in the translation process ... only
for connecting the other two") but their rows drive the navigation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.catalog.schema import Schema
from repro.storage.database import Database
from repro.storage.row import Row


def join_columns(schema: Schema, source: str, target: str) -> Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]]:
    """Column lists joining ``source`` to ``target`` (in that orientation).

    Returns ``(source columns, target columns)`` from whichever foreign key
    connects the two relations, or ``None`` when they are unrelated.
    """
    for fk in schema.foreign_keys_between(source, target):
        if fk.source_relation == schema.relation(source).name:
            return fk.source_attributes, fk.target_attributes
        return fk.target_attributes, fk.source_attributes
    return None


def related_rows(
    database: Database, path: Sequence[str], start_row: Row
) -> List[Row]:
    """Rows of the last relation of ``path`` reachable from ``start_row``.

    ``path`` is a sequence of relation names whose consecutive members are
    connected by foreign keys (as produced by
    :meth:`repro.graph.SchemaGraph.shortest_path`).  The first relation is
    the one ``start_row`` belongs to.  Duplicate end rows (reachable via
    several intermediate rows) are collapsed.
    """
    schema = database.schema
    if len(path) < 2:
        return [start_row]

    current_relation = schema.relation(path[0]).name
    frontier: List[Row] = [start_row]
    for next_name in path[1:]:
        next_relation = schema.relation(next_name).name
        columns = join_columns(schema, current_relation, next_relation)
        if columns is None:
            return []
        source_columns, target_columns = columns
        next_table = database.table(next_relation)
        next_frontier: List[Row] = []
        seen_keys = set()
        for row in frontier:
            values = [row.get(column) for column in source_columns]
            if any(value is None for value in values):
                continue
            for match in next_table.lookup(target_columns, values):
                key = tuple(sorted(match.as_dict().items()))
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                next_frontier.append(match)
        frontier = next_frontier
        current_relation = next_relation
    return frontier


def find_by_heading(
    database: Database, relation_name: str, heading_value, heading_attribute: Optional[str] = None
) -> Optional[Row]:
    """The first row of ``relation_name`` whose heading attribute equals ``heading_value``."""
    relation = database.schema.relation(relation_name)
    attribute = heading_attribute or relation.heading_attribute.name
    matches = database.table(relation.name).lookup((attribute,), (heading_value,))
    if matches:
        return matches[0]
    return None
