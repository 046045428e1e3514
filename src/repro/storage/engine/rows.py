"""The dict-row engine: the original in-memory table, now one of three.

This is the *oracle* engine — the reference implementation every other
engine is differentially tested against, and the default for every
relation unless a :class:`~repro.storage.config.StorageConfig` says
otherwise.  Rows live in one ``{rowid: values}`` dict; Python dicts
preserve insertion order, which is exactly the scan order the protocol
requires.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple

from repro.catalog.relation import Relation
from repro.storage.engine.base import BaseTableStorage
from repro.storage.row import Row


class RowStorage(BaseTableStorage):
    """Dict-of-dicts row store; the reference engine."""

    engine_name = "rows"

    def __init__(self, relation: Relation) -> None:
        self._rows: Dict[int, Dict[str, Any]] = {}
        super().__init__(relation)

    # ------------------------------------------------------------------
    # Physical primitives
    # ------------------------------------------------------------------

    def _store_row(self, rowid: int, values: Dict[str, Any]) -> None:
        self._rows[rowid] = values

    def _get_row(self, rowid: int) -> Optional[Dict[str, Any]]:
        return self._rows.get(rowid)

    def _pop_row(self, rowid: int) -> Optional[Dict[str, Any]]:
        return self._rows.pop(rowid, None)

    def _iter_items(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        return iter(self._rows.items())

    def _clear_rows(self) -> None:
        self._rows.clear()

    def _row_count(self) -> int:
        return len(self._rows)

    def has_row(self, rowid: int) -> bool:
        return rowid in self._rows

    # ------------------------------------------------------------------
    # Hot-path overrides (avoid the primitive indirection on scans)
    # ------------------------------------------------------------------

    def rows(self) -> Iterator[Row]:
        for values in self._rows.values():
            yield Row(values)

    def rows_with_ids(self) -> Iterator[Tuple[int, Row]]:
        for rowid, values in self._rows.items():
            yield rowid, Row(values)

    def row_by_id(self, rowid: int) -> Row:
        return Row(self._rows[rowid])
