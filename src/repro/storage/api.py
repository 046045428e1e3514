"""The public storage API: the :class:`TableStorage` protocol and friends.

This module is the contract between the storage layer and everything
above it (executor, ranking, summarisation, loaders, snapshots).  Code
that consumes tables should import from here and touch only protocol
members; code that *implements* a storage engine subclasses
:class:`~repro.storage.engine.base.BaseTableStorage`, which provides
the entire logical layer and leaves six physical primitives to fill in.

``__all__`` is the documented surface:

``TableStorage``
    A :class:`typing.Protocol` (``runtime_checkable``) describing every
    operation a table supports.  All three engines —
    :class:`~repro.storage.engine.rows.RowStorage` (and its historical
    alias :class:`~repro.storage.table.Table`),
    :class:`~repro.storage.engine.paged.PagedHeapStorage`,
    :class:`~repro.storage.engine.columnar.ColumnarStorage` — satisfy
    it, and the differential suite holds them byte-identical.
``StorageConfig``
    Engine routing + page/pool sizing; see
    :mod:`repro.storage.config`.
``create_storage``
    The factory :class:`~repro.storage.database.Database` uses to build
    one table per relation according to a config.

No public attribute was renamed by the protocol extraction: ``Table``
remains importable from its historical locations as a first-class
alias of the ``rows`` engine.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.catalog.relation import Relation
from repro.storage.config import STORAGE_ENGINES, StorageConfig
from repro.storage.engine import create_storage
from repro.storage.index import HashIndex
from repro.storage.row import Row

__all__ = [
    "TableStorage",
    "StorageConfig",
    "STORAGE_ENGINES",
    "create_storage",
]


@runtime_checkable
class TableStorage(Protocol):
    """Everything a table can do, independent of physical layout.

    Semantics every implementation guarantees:

    * Rowids are positive integers, assigned monotonically, never
      reused; scans (:meth:`rows`, :meth:`rows_with_ids`,
      :meth:`column`) run in insertion order, with updates keeping a
      row's position.
    * Row mappings expose the relation's attribute names in declaration
      order, so downstream serialisation is engine-independent.
    * :attr:`version` strictly increases on every successful mutation;
      equal versions imply identical contents.
    * :meth:`restore` of :meth:`export_rows` + :attr:`next_rowid` is an
      identity and rebuilds indexes, NULL tallies, and observer state.
    """

    relation: Relation

    # -- identity ------------------------------------------------------

    @property
    def name(self) -> str:
        """The relation's name."""
        ...

    @property
    def row_count(self) -> int:
        """Number of live rows."""
        ...

    @property
    def version(self) -> int:
        """Monotonic mutation counter (cache invalidation key)."""
        ...

    @property
    def next_rowid(self) -> int:
        """The rowid the next insert will receive."""
        ...

    def __len__(self) -> int:
        ...

    # -- scans ---------------------------------------------------------

    def rows(self) -> Iterator[Row]:
        """All rows, insertion order."""
        ...

    def rows_with_ids(self) -> Iterator[Tuple[int, Row]]:
        """``(rowid, row)`` pairs, insertion order."""
        ...

    def row_by_id(self, rowid: int) -> Row:
        """The row stored under ``rowid`` (KeyError when absent)."""
        ...

    def has_row(self, rowid: int) -> bool:
        """Whether ``rowid`` currently exists."""
        ...

    def column(self, name: str) -> List[Any]:
        """One column's values for every row, insertion order (read-only)."""
        ...

    def columnar_arrays(self) -> Optional[Dict[str, List[Any]]]:
        """Live per-column arrays, or ``None`` for row-oriented engines."""
        ...

    def export_rows(self) -> List[Tuple[int, Dict[str, Any]]]:
        """Copied ``(rowid, values)`` pairs — the full logical state."""
        ...

    # -- mutation ------------------------------------------------------

    def insert(self, values: Mapping[str, Any], coerce: bool = False) -> int:
        """Insert one row (constraint-checked); returns its rowid."""
        ...

    def insert_many(self, rows: Iterable[Mapping[str, Any]], coerce: bool = False) -> List[int]:
        ...

    def delete_rows(self, rowids: Iterable[int]) -> int:
        """Delete by rowid; returns how many existed and were removed."""
        ...

    def update_rows(self, rowids: Iterable[int], changes: Mapping[str, Any]) -> int:
        """Apply ``changes`` to each rowid; returns how many changed."""
        ...

    def truncate(self) -> None:
        """Drop every row; indexes cleared, observers notified."""
        ...

    def restore(self, rows: Iterable[Tuple[int, Mapping[str, Any]]], next_rowid: int) -> None:
        """Replace contents with snapshot state (no constraint re-checks)."""
        ...

    # -- statistics / observers ---------------------------------------

    def null_count(self, column: str) -> int:
        """How many rows store NULL in ``column`` right now."""
        ...

    def stats(self) -> Dict[str, Any]:
        """Engine tag plus health counters (rows, indexes, pool stats...)."""
        ...

    def add_observer(self, observer: Any) -> None:
        """Register a mutation observer (row_inserted/row_deleted/...)."""
        ...

    def remove_observer(self, observer: Any) -> None:
        ...

    # -- indexes -------------------------------------------------------

    def create_index(self, name: str, columns: Sequence[str], unique: bool = False) -> HashIndex:
        ...

    def index(self, name: str) -> Optional[HashIndex]:
        ...

    def indexes(self) -> Tuple[HashIndex, ...]:
        ...

    def find_index(self, columns: Sequence[str]) -> Optional[HashIndex]:
        ...

    def ensure_index(self, columns: Sequence[str]) -> HashIndex:
        ...

    def lookup(self, columns: Sequence[str], values: Sequence[Any]) -> List[Row]:
        """Equality fetch through a hash index (self-tuning)."""
        ...

    def has_key(self, columns: Sequence[str], values: Sequence[Any]) -> bool:
        ...

