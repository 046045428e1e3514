"""Storage layer: engines, tables, indexes, databases, loaders.

Physical storage is pluggable: :mod:`repro.storage.engine` holds three
:class:`~repro.storage.api.TableStorage` implementations (dict rows /
paged heap / columnar) routed per relation by a
:class:`~repro.storage.config.StorageConfig`.  Durability (WAL +
snapshots) lives in :mod:`repro.storage.wal`,
:mod:`repro.storage.snapshot` and :mod:`repro.storage.durability`; the
headline entry points are re-exported here.
"""

from repro.storage.api import TableStorage, create_storage
from repro.storage.config import STORAGE_ENGINES, StorageConfig
from repro.storage.database import Database
from repro.storage.durability import DurabilityConfig, DurabilityManager
from repro.storage.engine import (
    BaseTableStorage,
    BufferManager,
    ColumnarStorage,
    DiskManager,
    PagedHeapStorage,
    RowStorage,
)
from repro.storage.index import HashIndex
from repro.storage.loader import dump_records, load_csv_file, load_csv_text, load_records
from repro.storage.row import Row
from repro.storage.snapshot import latest_snapshot, load_snapshot, write_snapshot
from repro.storage.table import Table
from repro.storage.wal import WriteAheadLog, scan_wal

__all__ = [
    "BaseTableStorage",
    "BufferManager",
    "ColumnarStorage",
    "Database",
    "DiskManager",
    "DurabilityConfig",
    "DurabilityManager",
    "HashIndex",
    "PagedHeapStorage",
    "Row",
    "RowStorage",
    "STORAGE_ENGINES",
    "StorageConfig",
    "Table",
    "TableStorage",
    "WriteAheadLog",
    "create_storage",
    "dump_records",
    "latest_snapshot",
    "load_csv_file",
    "load_csv_text",
    "load_records",
    "load_snapshot",
    "scan_wal",
    "write_snapshot",
]
