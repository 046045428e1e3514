"""Shared table logic: constraints, indexes, observers, null tallies.

:class:`BaseTableStorage` carries everything about a table that is
*independent* of how row bytes are physically kept: normalisation and
type checking, NOT NULL / unique enforcement, hash index maintenance,
per-column NULL tallies, mutation observers, and the monotonic version
counter the executor's caches key on.  Concrete engines supply only the
physical primitives (``_store_row`` / ``_get_row`` / ``_pop_row`` /
``_iter_items`` / ``_clear_rows`` / ``_row_count``), which is what makes
the three engines byte-identical under the differential suite: every
semantic decision lives here, exactly once.

Physical invariants every engine must honour:

* Rowids are assigned by this base class, monotonically, and never
  reused; iteration order of ``_iter_items`` is insertion order
  (updates keep a row's position).
* ``_get_row`` / ``_iter_items`` return mappings whose keys are the
  relation's attribute names *in declaration order* — the same order
  :meth:`_normalise` produces — so projected/prefixed rows serialise
  identically regardless of engine.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.catalog.relation import Relation
from repro.catalog.types import check_value, coerce_value
from repro.errors import (
    NotNullViolationError,
    PrimaryKeyViolationError,
    UnknownAttributeError,
)
from repro.storage.index import HashIndex
from repro.storage.row import Row


class BaseTableStorage:
    """A table conforming to a :class:`Relation`, minus the physical layer.

    Rows are stored in insertion order and identified by a monotonically
    increasing integer row id.  A unique hash index is maintained over the
    primary key (when the relation declares one); additional indexes can be
    created on demand and are kept up to date by inserts/deletes/updates.
    """

    #: Engine tag reported by :meth:`stats` and used by
    #: :class:`~repro.storage.config.StorageConfig` routing.
    engine_name = "base"

    def __init__(self, relation: Relation) -> None:
        self.relation = relation
        self._next_rowid = 1
        self._version = 0
        self._indexes: Dict[str, HashIndex] = {}
        #: Per-column NULL tallies, maintained by every mutation.  The
        #: streaming narrator uses them to prove a heading-only fallback
        #: clause cannot occur (no row has all narrated attributes NULL).
        self._null_counts: Dict[str, int] = {a.name: 0 for a in relation.attributes}
        #: Mutation observers (maintained ranking structures, like the
        #: indexes but cross-table).  Notified after the row store and
        #: indexes reflect the change.
        self._observers: List[Any] = []
        if relation.primary_key_names:
            self.create_index("pk", relation.primary_key_names, unique=True)

    # ------------------------------------------------------------------
    # Physical primitives (engine-specific)
    # ------------------------------------------------------------------

    def _store_row(self, rowid: int, values: Dict[str, Any]) -> None:
        """Store ``values`` under ``rowid`` (insert or full replace)."""
        raise NotImplementedError

    def _get_row(self, rowid: int) -> Optional[Dict[str, Any]]:
        """The stored values for ``rowid``, or ``None`` if absent."""
        raise NotImplementedError

    def _pop_row(self, rowid: int) -> Optional[Dict[str, Any]]:
        """Remove and return the values for ``rowid`` (``None`` if absent)."""
        raise NotImplementedError

    def _iter_items(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Iterate ``(rowid, values)`` in insertion order."""
        raise NotImplementedError

    def _clear_rows(self) -> None:
        """Drop every stored row (the physical part of truncate)."""
        raise NotImplementedError

    def _row_count(self) -> int:
        raise NotImplementedError

    def has_row(self, rowid: int) -> bool:
        """Whether a row with ``rowid`` currently exists."""
        return self._get_row(rowid) is not None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.relation.name

    @property
    def row_count(self) -> int:
        return self._row_count()

    @property
    def version(self) -> int:
        """Monotonic counter bumped by every mutating call.

        Caches keyed on table contents (scan caches, subquery memos)
        compare versions instead of subscribing to change events.
        """
        return self._version

    @property
    def next_rowid(self) -> int:
        """The rowid the next insert will receive (snapshot state)."""
        return self._next_rowid

    def __len__(self) -> int:
        return self._row_count()

    def rows(self) -> Iterator[Row]:
        """Iterate over the table's rows in insertion order.

        Rowids are assigned monotonically and never reused, and engines
        preserve insertion order, so no sort is needed.
        """
        for _, values in self._iter_items():
            yield Row(values)

    def rows_with_ids(self) -> Iterator[Tuple[int, Row]]:
        for rowid, values in self._iter_items():
            yield rowid, Row(values)

    def row_by_id(self, rowid: int) -> Row:
        values = self._get_row(rowid)
        if values is None:
            raise KeyError(rowid)
        return Row(values)

    def export_rows(self) -> List[Tuple[int, Dict[str, Any]]]:
        """Materialise ``(rowid, values)`` pairs for snapshots/conversion.

        The returned dicts are copies; mutating them does not touch the
        table.  Together with :attr:`next_rowid` this is the complete
        logical state — :meth:`restore` of an export is an identity, in
        *any* engine.
        """
        return [(rowid, dict(values)) for rowid, values in self._iter_items()]

    def column(self, name: str) -> List[Any]:
        """The values of one column for every row, in insertion order.

        A batch accessor: one call instead of ``row_count`` row probes.
        The returned list must be treated as read-only — the columnar
        engine returns its live array (zero-copy), other engines
        materialise a fresh list.
        """
        canonical = self.relation.attribute(name).name
        return [values.get(canonical) for _, values in self._iter_items()]

    def columnar_arrays(self) -> Optional[Dict[str, List[Any]]]:
        """Per-column arrays when this engine stores columns natively.

        Returns ``{attribute name: list of values}`` with every list in
        insertion order and of equal length, or ``None`` when the engine
        is row-oriented (the executor then stays row-at-a-time).  The
        arrays are live views: valid until the next mutation, never to
        be mutated by the caller.
        """
        return None

    def stats(self) -> Dict[str, Any]:
        """Engine-agnostic health counters (engines extend this dict)."""
        return {
            "engine": self.engine_name,
            "rows": self._row_count(),
            "next_rowid": self._next_rowid,
            "version": self._version,
            "null_counts": dict(self._null_counts),
            "indexes": {
                index.name: len(index) for index in self._indexes.values()
            },
        }

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, values: Mapping[str, Any], coerce: bool = False) -> int:
        """Insert a row given a column/value mapping; returns the new row id.

        Unknown columns raise :class:`UnknownAttributeError`; missing
        columns default to ``None`` (subject to NOT NULL checks).  With
        ``coerce=True`` textual values are converted to the declared types,
        which is what the CSV/dict loaders use.
        """
        normalised = self._normalise(values, coerce=coerce)
        self._check_not_null(normalised)
        self._check_unique_indexes(normalised)
        rowid = self._next_rowid
        self._next_rowid += 1
        self._store_row(rowid, normalised)
        self._version += 1
        for column, value in normalised.items():
            if value is None:
                self._null_counts[column] += 1
        for index in self._indexes.values():
            index.add(index.key_for(normalised), rowid)
        if self._observers:
            for observer in self._observers:
                observer.row_inserted(self, rowid, normalised)
        return rowid

    def insert_many(self, rows: Iterable[Mapping[str, Any]], coerce: bool = False) -> List[int]:
        return [self.insert(row, coerce=coerce) for row in rows]

    def delete_rows(self, rowids: Iterable[int]) -> int:
        """Delete the rows with the given ids; returns how many were removed."""
        removed = 0
        for rowid in list(rowids):
            values = self._pop_row(rowid)
            if values is None:
                continue
            for column, value in values.items():
                if value is None:
                    self._null_counts[column] -= 1
            for index in self._indexes.values():
                index.remove(index.key_for(values), rowid)
            if self._observers:
                for observer in self._observers:
                    observer.row_deleted(self, rowid, values)
            removed += 1
        if removed:
            self._version += 1
        return removed

    def update_rows(self, rowids: Iterable[int], changes: Mapping[str, Any]) -> int:
        """Apply ``changes`` to each of the given rows; returns how many changed."""
        updated = 0
        for rowid in list(rowids):
            current = self._get_row(rowid)
            if current is None:
                continue
            merged = dict(current)
            for column, value in changes.items():
                attribute = self.relation.attribute(column)
                merged[attribute.name] = check_value(
                    attribute.dtype, value, context=attribute.qualified_name
                )
            self._check_not_null(merged)
            self._check_unique_indexes(merged, ignore_rowid=rowid)
            for column in merged:
                was_null = current.get(column) is None
                is_null = merged[column] is None
                if was_null != is_null:
                    self._null_counts[column] += 1 if is_null else -1
            for index in self._indexes.values():
                index.remove(index.key_for(current), rowid)
                index.add(index.key_for(merged), rowid)
            self._store_row(rowid, merged)
            if self._observers:
                for observer in self._observers:
                    observer.row_updated(self, rowid, current, merged)
            updated += 1
        if updated:
            self._version += 1
        return updated

    def truncate(self) -> None:
        """Remove every row (indexes are cleared)."""
        self._clear_rows()
        self._version += 1
        self._null_counts = {a.name: 0 for a in self.relation.attributes}
        for index in self._indexes.values():
            index.clear()
        if self._observers:
            for observer in self._observers:
                observer.table_truncated(self)

    def restore(self, rows: Iterable[Tuple[int, Mapping[str, Any]]], next_rowid: int) -> None:
        """Replace the table's contents with snapshot state, rowids included.

        Values are taken as already validated (they passed constraint
        checks when originally inserted), so no re-checking happens —
        restoring must succeed even under constraints a partially-built
        state would violate mid-way.  The rowid counter is restored too,
        so rows inserted after recovery get the same ids they would have
        gotten had the process never died.  Indexes, NULL tallies, and
        observers (``row_inserted`` per restored row, after the
        ``table_truncated`` from the embedded truncate) are all rebuilt,
        identically in every engine.  Bumps the version so caches keyed
        on table contents are invalidated.
        """
        self.truncate()
        for rowid, values in rows:
            stored = dict(values)
            self._store_row(rowid, stored)
            for column, value in stored.items():
                if value is None:
                    self._null_counts[column] += 1
            for index in self._indexes.values():
                index.add(index.key_for(stored), rowid)
            if self._observers:
                for observer in self._observers:
                    observer.row_inserted(self, rowid, stored)
        self._next_rowid = next_rowid
        self._version += 1

    def null_count(self, column: str) -> int:
        """How many rows currently store NULL in ``column``."""
        return self._null_counts[self.relation.attribute(column).name]

    def add_observer(self, observer: Any) -> None:
        """Register a mutation observer (idempotent per object)."""
        if observer not in self._observers:
            self._observers.append(observer)

    def remove_observer(self, observer: Any) -> None:
        if observer in self._observers:
            self._observers.remove(observer)

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------

    def create_index(self, name: str, columns: Sequence[str], unique: bool = False) -> HashIndex:
        """Create (or return an existing) index over ``columns``."""
        canonical = tuple(self.relation.attribute(c).name for c in columns)
        key = name.lower()
        if key in self._indexes:
            return self._indexes[key]
        index = HashIndex(name, canonical, unique=unique)
        for rowid, values in self._iter_items():
            index.add(index.key_for(values), rowid)
        self._indexes[key] = index
        return index

    def indexes(self) -> Tuple[HashIndex, ...]:
        return tuple(self._indexes.values())

    def find_index(self, columns: Sequence[str]) -> Optional[HashIndex]:
        """An existing index exactly covering ``columns``, if any."""
        canonical = tuple(self.relation.attribute(c).name for c in columns)
        for index in self._indexes.values():
            if index.columns == canonical:
                return index
        return None

    def ensure_index(self, columns: Sequence[str]) -> HashIndex:
        """Find an index covering ``columns``, creating one on demand.

        The executor uses this to self-tune: the first index-backed scan
        over a column set pays the build cost, later scans get O(1) probes.
        """
        existing = self.find_index(columns)
        if existing is not None:
            return existing
        canonical = tuple(self.relation.attribute(c).name for c in columns)
        # "," cannot appear in identifiers, so differently-shaped column
        # sets never produce the same name (("a","b") vs ("a_b",)); the
        # loop guards against a user-created index squatting on the name.
        base = "auto_" + ",".join(canonical)
        name = base
        suffix = 0
        while True:
            index = self.create_index(name, canonical)
            if index.columns == canonical:
                return index
            suffix += 1
            name = f"{base}~{suffix}"

    def lookup(self, columns: Sequence[str], values: Sequence[Any]) -> List[Row]:
        """Fetch rows whose ``columns`` equal ``values`` through a hash index.

        Self-tuning like the executor's index scans: the first lookup on a
        column set builds the index (``ensure_index``), later lookups are
        O(1) probes.  Rowids are monotonic, so the sorted probe result
        preserves the insertion order a linear scan would return.
        """
        index = self.ensure_index(columns)
        return [self.row_by_id(rowid) for rowid in index.lookup(tuple(values))]

    def has_key(self, columns: Sequence[str], values: Sequence[Any]) -> bool:
        return bool(self.lookup(columns, values))

    # ------------------------------------------------------------------
    # Constraint helpers
    # ------------------------------------------------------------------

    def _normalise(self, values: Mapping[str, Any], coerce: bool) -> Dict[str, Any]:
        known = {a.name.lower(): a for a in self.relation.attributes}
        normalised: Dict[str, Any] = {a.name: None for a in self.relation.attributes}
        for column, value in values.items():
            attribute = known.get(column.lower())
            if attribute is None:
                raise UnknownAttributeError(
                    f"table {self.name!r} has no column {column!r}"
                )
            if coerce:
                value = coerce_value(attribute.dtype, value)
            normalised[attribute.name] = check_value(
                attribute.dtype, value, context=attribute.qualified_name
            )
        return normalised

    def _check_not_null(self, values: Mapping[str, Any]) -> None:
        for attribute in self.relation.attributes:
            if not attribute.nullable and values.get(attribute.name) is None:
                raise NotNullViolationError(
                    f"column {attribute.qualified_name} is NOT NULL but received NULL"
                )

    def _check_unique_indexes(
        self, values: Mapping[str, Any], ignore_rowid: Optional[int] = None
    ) -> None:
        for index in self._indexes.values():
            key = index.key_for(dict(values))
            if index.would_violate_unique(key, ignore_rowid=ignore_rowid):
                raise PrimaryKeyViolationError(
                    f"duplicate key {key!r} for unique index {index.name!r}"
                    f" on table {self.name!r}"
                )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}({self.name}, {len(self)} rows)"
