"""Ranking of relations and tuples for size-bounded narratives.

Section 2.2: limiting the resulting text "can be realized either with
structural constraints affecting the traversal of the database schema
graph based on weights on its nodes and/or edges, or with some notion of
ranking of the relations and tuples involved.  The latter would force the
most significant tuples to be presented first and the less significant
tuples to be ignored".

Tuple significance combines the owning relation's weight with the tuple's
*connectivity* — how many related tuples it reaches through foreign keys —
so "Woody Allen" (three movies) outranks a director with none.

Connectivity is served by a *maintained* structure
(:class:`ConnectivityTracker`): per-row counts are built once per database
and then updated incrementally on every DML through the table-observer
hooks, exactly like the hash indexes, so :func:`rank_tuples` never
re-scores rows.  The relation weight is a per-relation constant, so the
maintained ordering is shared by every user profile.  The original
score-everything path is retained as the oracle
(``rank_tuples(..., maintained=False)``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.catalog.relation import Relation
from repro.content.personalization import DEFAULT_PROFILE, UserProfile
from repro.storage.database import Database
from repro.storage.row import Row
from repro.storage.api import TableStorage


@dataclass(frozen=True)
class RankedTuple:
    """A tuple with its computed significance score."""

    relation_name: str
    row: Row
    score: float

    def __lt__(self, other: "RankedTuple") -> bool:  # pragma: no cover - trivial
        return self.score < other.score


def tuple_connectivity(database: Database, relation: Relation, row: Row) -> int:
    """How many rows in other relations reference (or are referenced by) ``row``."""
    schema = database.schema
    count = 0
    for fk in schema.foreign_keys_to(relation.name):
        values = [row.get(col) for col in fk.target_attributes]
        if any(v is None for v in values):
            continue
        count += len(database.table(fk.source_relation).lookup(fk.source_attributes, values))
    for fk in schema.foreign_keys_from(relation.name):
        values = [row.get(col) for col in fk.source_attributes]
        if any(v is None for v in values):
            continue
        count += len(database.table(fk.target_relation).lookup(fk.target_attributes, values))
    return count


def score_tuple(
    database: Database,
    relation: Relation,
    row: Row,
    profile: UserProfile = DEFAULT_PROFILE,
) -> float:
    """Significance score: relation weight plus dampened connectivity."""
    weight = profile.relation_weight(relation)
    connectivity = tuple_connectivity(database, relation, row)
    return weight + 0.5 * connectivity


class ConnectivityTracker:
    """Maintained per-row connectivity counts and ranked orders.

    Built once per database (first ranking touch), then kept current by
    the table-observer hooks: every insert/delete/update adjusts only the
    counts of the rows the change actually touches — the row itself plus
    the parents/children its foreign-key values reach through the hash
    indexes.  Ranked row orders are sorted lazily per relation and cached
    until a count (or a sort key) in that relation changes, so repeated
    ``rank_tuples`` calls are a slice, not a re-scoring pass.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self._counts: Dict[str, Dict[int, int]] = {}
        self._stable_keys: Dict[str, Dict[int, Tuple]] = {}
        self._orders: Dict[str, List[int]] = {}
        self._needs_rebuild = False
        self._build()
        for table in database.tables:
            table.add_observer(self)

    # -- construction --------------------------------------------------

    def _build(self) -> None:
        schema = self.database.schema
        self._counts = {
            relation.name: {
                rowid: 0 for rowid, _values in self.database.table(relation.name).rows_with_ids()
            }
            for relation in schema.relations
        }
        self._stable_keys = {relation.name: {} for relation in schema.relations}
        self._orders = {}
        for relation in schema.relations:
            table = self.database.table(relation.name)
            for fk in schema.foreign_keys_from(relation.name):
                parent = self.database.table(fk.target_relation)
                parent_index = parent.ensure_index(fk.target_attributes)
                child_counts = self._counts[relation.name]
                parent_counts = self._counts[fk.target_relation]
                for rowid, row in table.rows_with_ids():
                    values = tuple(row.get(column) for column in fk.source_attributes)
                    if any(value is None for value in values):
                        continue
                    parents = parent_index.lookup(values)
                    if parents:
                        child_counts[rowid] += len(parents)
                        for parent_id in parents:
                            parent_counts[parent_id] += 1
        self._needs_rebuild = False

    # -- observer protocol ---------------------------------------------

    def row_inserted(self, table: TableStorage, rowid: int, values: Mapping[str, Any]) -> None:
        if self._needs_rebuild:
            return
        name = table.name
        schema = self.database.schema
        self._counts[name][rowid] = 0
        dirty = {name}
        for fk in schema.foreign_keys_from(name):
            key = tuple(values.get(column) for column in fk.source_attributes)
            if any(value is None for value in key):
                continue
            parent = self.database.table(fk.target_relation)
            parent_counts = self._counts[fk.target_relation]
            for parent_id in parent.ensure_index(fk.target_attributes).lookup(key):
                self._counts[name][rowid] += 1
                if fk.target_relation == name and parent_id == rowid:
                    # Self-reference: the row is its own parent; the child
                    # direction is added below via the fk-to pass.
                    self._counts[name][rowid] += 1
                else:
                    parent_counts[parent_id] += 1
                    dirty.add(fk.target_relation)
        for fk in schema.foreign_keys_to(name):
            key = tuple(values.get(column) for column in fk.target_attributes)
            if any(value is None for value in key):
                continue
            child = self.database.table(fk.source_relation)
            child_counts = self._counts[fk.source_relation]
            for child_id in child.ensure_index(fk.source_attributes).lookup(key):
                if fk.source_relation == name and child_id == rowid:
                    continue  # the self pair was fully counted above
                self._counts[name][rowid] += 1
                child_counts[child_id] += 1
                dirty.add(fk.source_relation)
        for relation_name in dirty:
            self._orders.pop(relation_name, None)

    def row_deleted(self, table: TableStorage, rowid: int, values: Mapping[str, Any]) -> None:
        if self._needs_rebuild:
            return
        name = table.name
        schema = self.database.schema
        self._counts[name].pop(rowid, None)
        self._stable_keys[name].pop(rowid, None)
        dirty = {name}
        for fk in schema.foreign_keys_from(name):
            key = tuple(values.get(column) for column in fk.source_attributes)
            if any(value is None for value in key):
                continue
            parent = self.database.table(fk.target_relation)
            parent_counts = self._counts[fk.target_relation]
            for parent_id in parent.ensure_index(fk.target_attributes).lookup(key):
                parent_counts[parent_id] -= 1
                dirty.add(fk.target_relation)
        for fk in schema.foreign_keys_to(name):
            key = tuple(values.get(column) for column in fk.target_attributes)
            if any(value is None for value in key):
                continue
            child = self.database.table(fk.source_relation)
            child_counts = self._counts[fk.source_relation]
            for child_id in child.ensure_index(fk.source_attributes).lookup(key):
                child_counts[child_id] -= 1
                dirty.add(fk.source_relation)
        for relation_name in dirty:
            self._orders.pop(relation_name, None)

    def row_updated(
        self,
        table: TableStorage,
        rowid: int,
        old_values: Mapping[str, Any],
        new_values: Mapping[str, Any],
    ) -> None:
        if self._needs_rebuild:
            return
        name = table.name
        schema = self.database.schema
        self._stable_keys[name].pop(rowid, None)
        dirty = {name}
        for fk in schema.foreign_keys_from(name):
            old_key = tuple(old_values.get(column) for column in fk.source_attributes)
            new_key = tuple(new_values.get(column) for column in fk.source_attributes)
            if old_key == new_key:
                continue
            parent = self.database.table(fk.target_relation)
            index = parent.ensure_index(fk.target_attributes)
            parent_counts = self._counts[fk.target_relation]
            for key, delta in ((old_key, -1), (new_key, +1)):
                if any(value is None for value in key):
                    continue
                for parent_id in index.lookup(key):
                    if fk.target_relation == name and parent_id == rowid:
                        continue  # own count is recomputed below
                    parent_counts[parent_id] += delta
                    dirty.add(fk.target_relation)
        for fk in schema.foreign_keys_to(name):
            old_key = tuple(old_values.get(column) for column in fk.target_attributes)
            new_key = tuple(new_values.get(column) for column in fk.target_attributes)
            if old_key == new_key:
                continue
            child = self.database.table(fk.source_relation)
            index = child.ensure_index(fk.source_attributes)
            child_counts = self._counts[fk.source_relation]
            for key, delta in ((old_key, -1), (new_key, +1)):
                if any(value is None for value in key):
                    continue
                for child_id in index.lookup(key):
                    if fk.source_relation == name and child_id == rowid:
                        continue
                    child_counts[child_id] += delta
                    dirty.add(fk.source_relation)
        self._counts[name][rowid] = tuple_connectivity(
            self.database, table.relation, table.row_by_id(rowid)
        )
        for relation_name in dirty:
            self._orders.pop(relation_name, None)

    def table_truncated(self, table: TableStorage) -> None:
        # Truncation invalidates counts across every FK-connected relation;
        # it is rare, so the tracker just rebuilds lazily on next access.
        self._needs_rebuild = True

    # -- queries ---------------------------------------------------------

    def connectivity(self, relation_name: str, rowid: int) -> int:
        if self._needs_rebuild:
            self._build()
        return self._counts[relation_name][rowid]

    def ranked_rowids(self, relation_name: str) -> List[int]:
        """Row ids ordered by (descending connectivity, stable row key)."""
        if self._needs_rebuild:
            self._build()
        order = self._orders.get(relation_name)
        if order is None:
            table = self.database.table(relation_name)
            counts = self._counts[relation_name]
            keys = self._stable_keys[relation_name]

            def sort_key(row_id: int):
                stable = keys.get(row_id)
                if stable is None:
                    stable = _stable_key(table.row_by_id(row_id))
                    keys[row_id] = stable
                return (-counts[row_id], stable)

            order = sorted(counts, key=sort_key)
            self._orders[relation_name] = order
        return order


#: One tracker per database, created on first ranking touch (the tracker
#: registry parallels ``graph_for``/``builder_for``).
_TRACKERS: "weakref.WeakKeyDictionary[Database, ConnectivityTracker]" = (
    weakref.WeakKeyDictionary()
)


def tracker_for(database: Database) -> ConnectivityTracker:
    """The shared maintained-connectivity tracker for ``database``."""
    tracker = _TRACKERS.get(database)
    if tracker is None:
        tracker = ConnectivityTracker(database)
        _TRACKERS[database] = tracker
    return tracker


def rank_tuples(
    database: Database,
    relation_name: str,
    limit: Optional[int] = None,
    profile: UserProfile = DEFAULT_PROFILE,
    maintained: bool = True,
) -> List[RankedTuple]:
    """The relation's tuples ordered most-significant-first.

    With ``maintained`` (the default) scores come from the incremental
    :class:`ConnectivityTracker`; ``maintained=False`` is the original
    score-every-row oracle the differential tests compare against.  The
    relation-weight term is constant per relation, so both paths produce
    the same order for every profile.
    """
    relation = database.schema.relation(relation_name)
    if maintained:
        tracker = tracker_for(database)
        weight = profile.relation_weight(relation)
        order = tracker.ranked_rowids(relation.name)
        if limit is not None:
            order = order[:limit]
        table = database.table(relation.name)
        counts = tracker._counts[relation.name]
        return [
            RankedTuple(
                relation_name=relation.name,
                row=table.row_by_id(rowid),
                score=weight + 0.5 * counts[rowid],
            )
            for rowid in order
        ]
    ranked = [
        RankedTuple(
            relation_name=relation.name,
            row=row,
            score=score_tuple(database, relation, row, profile),
        )
        for row in database.table(relation.name).rows()
    ]
    ranked.sort(key=lambda r: (-r.score, _stable_key(r.row)))
    if limit is not None:
        ranked = ranked[:limit]
    return ranked


def rank_relations(
    database: Database,
    profile: UserProfile = DEFAULT_PROFILE,
    include_bridges: bool = False,
    limit: Optional[int] = None,
) -> List[Relation]:
    """Relations ordered by interestingness (weight, then population)."""
    relations = [
        r
        for r in database.schema.relations
        if (include_bridges or not r.bridge) and profile.includes(r.name)
    ]
    relations.sort(
        key=lambda r: (-profile.relation_weight(r), -len(database.table(r.name)), r.name)
    )
    if limit is not None:
        relations = relations[:limit]
    return relations


def _stable_key(row: Row) -> Tuple:
    return tuple(sorted((k, str(v)) for k, v in row.as_dict().items()))


def coverage_plan(
    database: Database,
    profile: UserProfile = DEFAULT_PROFILE,
    max_relations: Optional[int] = None,
    max_tuples_per_relation: Optional[int] = None,
) -> Dict[str, List[RankedTuple]]:
    """Which tuples a size-bounded database narrative should cover.

    Returns an ordered mapping of relation name to its ranked tuples,
    restricted by the two limits (profile limits apply when the arguments
    are ``None``).
    """
    tuples_limit = (
        max_tuples_per_relation
        if max_tuples_per_relation is not None
        else profile.max_tuples_per_relation
    )
    plan: Dict[str, List[RankedTuple]] = {}
    for relation in rank_relations(database, profile, limit=max_relations):
        plan[relation.name] = rank_tuples(database, relation.name, tuples_limit, profile)
    return plan
