"""Columnar engine: per-column arrays with a validity bitmap.

Hot relations pay one list per attribute instead of one dict per row.
The win is not storage, it is *scan shape*: the executor asks for
:meth:`ColumnarStorage.columnar_arrays` and, when it gets them, runs
column-at-a-time comprehensions (``repro.engine.vector``) instead of
per-row closure calls — no dict probe, no ``Row`` allocation for rows a
filter rejects.

Layout
------
* ``_columns[name]`` — one dense Python list per attribute, position-
  indexed; every list always has identical length.
* ``_validity[name]`` — a parallel ``bytearray`` (1 = value present,
  0 = NULL), the classic validity bitmap kept byte-per-row because
  Python bit-twiddling costs more than it saves at these scales.
* ``_rowids`` — position → rowid; ``None`` marks a tombstone.
* ``_positions`` — rowid → position (the inverse, live rows only).

Deletes tombstone in place (O(1)) and compact lazily: whenever dead
slots exceed a quarter of the table, and always before handing arrays
to the vectorized scan path, which requires dense position order ==
insertion order.  Updates write in place, so positions — and therefore
scan order — are stable across updates, matching the dict engine's
insertion-order semantics exactly.

Maintenance is driven by the same mutation path as every engine (the
base class calls ``_store_row`` / ``_pop_row``), which is the
"rebuilt incrementally on DML" contract: the arrays are never stale,
and table observers see identical callbacks in identical order.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.catalog.relation import Relation
from repro.storage.engine.base import BaseTableStorage

#: Compact when dead slots exceed this fraction of total slots.
_COMPACT_FRACTION = 4


class ColumnarStorage(BaseTableStorage):
    """Column-major store for hot relations; vectorized-scan capable."""

    engine_name = "columnar"

    def __init__(self, relation: Relation) -> None:
        self._names: Tuple[str, ...] = tuple(a.name for a in relation.attributes)
        self._columns: Dict[str, List[Any]] = {name: [] for name in self._names}
        self._validity: Dict[str, bytearray] = {name: bytearray() for name in self._names}
        self._rowids: List[Optional[int]] = []
        self._positions: Dict[int, int] = {}
        self._dead = 0
        self._compactions = 0
        super().__init__(relation)

    # ------------------------------------------------------------------
    # Physical primitives
    # ------------------------------------------------------------------

    def _store_row(self, rowid: int, values: Dict[str, Any]) -> None:
        position = self._positions.get(rowid)
        if position is None:
            position = len(self._rowids)
            self._rowids.append(rowid)
            self._positions[rowid] = position
            for name in self._names:
                value = values.get(name)
                self._columns[name].append(value)
                self._validity[name].append(0 if value is None else 1)
        else:
            for name in self._names:
                value = values.get(name)
                self._columns[name][position] = value
                self._validity[name][position] = 0 if value is None else 1

    def _get_row(self, rowid: int) -> Optional[Dict[str, Any]]:
        position = self._positions.get(rowid)
        if position is None:
            return None
        return self._load(position)

    def _pop_row(self, rowid: int) -> Optional[Dict[str, Any]]:
        position = self._positions.pop(rowid, None)
        if position is None:
            return None
        values = self._load(position)
        # Tombstone: the slot stays (positions of later rows are stable)
        # but holds no reachable data; compaction reclaims it lazily.
        self._rowids[position] = None
        for name in self._names:
            self._columns[name][position] = None
            self._validity[name][position] = 0
        self._dead += 1
        if self._dead * _COMPACT_FRACTION > len(self._rowids):
            self._compact()
        return values

    def _iter_items(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        columns = [self._columns[name] for name in self._names]
        names = self._names
        for position, rowid in enumerate(self._rowids):
            if rowid is None:
                continue
            yield rowid, {
                name: column[position] for name, column in zip(names, columns)
            }

    def _clear_rows(self) -> None:
        for name in self._names:
            self._columns[name] = []
            self._validity[name] = bytearray()
        self._rowids = []
        self._positions = {}
        self._dead = 0

    def _row_count(self) -> int:
        return len(self._positions)

    def has_row(self, rowid: int) -> bool:
        return rowid in self._positions

    # ------------------------------------------------------------------
    # Columnar access
    # ------------------------------------------------------------------

    def column(self, name: str) -> List[Any]:
        canonical = self.relation.attribute(name).name
        if self._dead:
            self._compact()
        return self._columns[canonical]

    def columnar_arrays(self) -> Optional[Dict[str, List[Any]]]:
        if self._dead:
            self._compact()
        return self._columns

    def validity(self, name: str) -> bytearray:
        """The validity bitmap for one column (1 = present, 0 = NULL)."""
        canonical = self.relation.attribute(name).name
        if self._dead:
            self._compact()
        return self._validity[canonical]

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["dead_slots"] = self._dead
        out["slots"] = len(self._rowids)
        out["compactions"] = self._compactions
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _load(self, position: int) -> Dict[str, Any]:
        return {name: self._columns[name][position] for name in self._names}

    def _compact(self) -> None:
        """Rewrite arrays without tombstones; insertion order is preserved."""
        keep = [p for p, rowid in enumerate(self._rowids) if rowid is not None]
        for name in self._names:
            column = self._columns[name]
            valid = self._validity[name]
            self._columns[name] = [column[p] for p in keep]
            self._validity[name] = bytearray(valid[p] for p in keep)
        self._rowids = [self._rowids[p] for p in keep]
        self._positions = {rowid: p for p, rowid in enumerate(self._rowids)}
        self._dead = 0
        self._compactions += 1
