"""Pluggable table storage engines.

Three engines, one logical contract
(:class:`~repro.storage.engine.base.BaseTableStorage`, publicly the
:class:`~repro.storage.api.TableStorage` protocol):

``rows``
    :class:`~repro.storage.engine.rows.RowStorage` — dict rows, the
    original implementation and the differential oracle.
``paged``
    :class:`~repro.storage.engine.paged.PagedHeapStorage` — slotted
    pages in a heap file behind an LRU buffer pool; relations larger
    than the pool spill to disk.
``columnar``
    :class:`~repro.storage.engine.columnar.ColumnarStorage` —
    per-column arrays with a validity bitmap; the executor runs
    vectorized column-at-a-time scans over it.

:func:`create_storage` is the routing factory the
:class:`~repro.storage.database.Database` constructor calls, driven by
a :class:`~repro.storage.config.StorageConfig`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.catalog.relation import Relation
from repro.storage.engine.base import BaseTableStorage
from repro.storage.engine.columnar import ColumnarStorage
from repro.storage.engine.paged import (
    BufferManager,
    DiskManager,
    PagedHeapStorage,
    SlottedPage,
)
from repro.storage.engine.rows import RowStorage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.config import StorageConfig

__all__ = [
    "BaseTableStorage",
    "BufferManager",
    "ColumnarStorage",
    "DiskManager",
    "PagedHeapStorage",
    "RowStorage",
    "SlottedPage",
    "create_storage",
]


def create_storage(
    relation: Relation, config: Optional["StorageConfig"] = None
) -> BaseTableStorage:
    """Build the configured storage engine for one relation."""
    from repro.storage.config import (
        ENGINE_COLUMNAR,
        ENGINE_PAGED,
        StorageConfig,
    )

    if config is None:
        config = StorageConfig()
    engine = config.engine_for(relation.name)
    if engine == ENGINE_PAGED:
        return PagedHeapStorage(
            relation,
            page_size=config.page_size,
            buffer_pool_pages=config.buffer_pool_pages,
            directory=config.directory,
        )
    if engine == ENGINE_COLUMNAR:
        return ColumnarStorage(relation)
    # The rows engine is built as the historical ``Table`` subclass so
    # existing reprs and isinstance expectations keep holding.
    from repro.storage.table import Table

    return Table(relation)
