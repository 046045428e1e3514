"""StorageConfig: every storage knob in one validated dataclass.

Before this module the storage layer's tuning was scattered — implicit
index self-tuning inside ``Table.lookup``, page/pool sizes that would
have become constructor kwargs, and ``REPRO_*`` environment variables
read at point of use.  The config consolidates them behind one frozen dataclass, mirroring
:class:`~repro.storage.durability.DurabilityConfig` and
``ShardRouterConfig``: construct it once, validate eagerly, pass it to
:class:`~repro.storage.database.Database` (or a session / shard router)
and every table the database builds obeys it.

It composes with :class:`~repro.storage.durability.DurabilityConfig`:
durability decides *whether* state survives the process, storage
decides *how* each relation physically holds its rows.  WAL replay and
snapshot restore are engine-agnostic, so any combination is legal and
byte-identical.

The environment variable ``REPRO_STORAGE_ENGINE`` (read by
:meth:`StorageConfig.from_env`, which is what a bare ``Database(schema)``
uses) sets the default engine for every relation: ``rows`` (default),
``paged``, or ``columnar``.  Flipping it runs the entire test suite
through another engine — the storage twin of ``REPRO_ORACLE=1``.

Lookups always self-tune: the first ``lookup`` on a column set builds a
hash index that every later write maintains.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Tuple, Union

from repro.storage.engine.paged import MAX_PAGE_SIZE, MIN_PAGE_SIZE

__all__ = [
    "ENGINE_ROWS",
    "ENGINE_PAGED",
    "ENGINE_COLUMNAR",
    "STORAGE_ENGINES",
    "StorageConfig",
]

ENGINE_ROWS = "rows"
ENGINE_PAGED = "paged"
ENGINE_COLUMNAR = "columnar"
STORAGE_ENGINES: Tuple[str, ...] = (ENGINE_ROWS, ENGINE_PAGED, ENGINE_COLUMNAR)

ENGINE_ENV = "REPRO_STORAGE_ENGINE"


@dataclass(frozen=True)
class StorageConfig:
    """How a database physically stores each relation.

    ``default_engine``
        Engine for relations without an explicit entry in ``engines``:
        ``"rows"`` (dict rows, the oracle), ``"paged"`` (slotted pages
        behind a buffer pool), or ``"columnar"`` (per-column arrays,
        vectorized scans).
    ``engines``
        Per-relation overrides, ``{relation name: engine}``; names are
        matched case-insensitively.
    ``page_size``
        Page size in bytes for paged relations (``128``–``65536``).
    ``buffer_pool_pages``
        Resident-page budget per paged relation; datasets beyond it
        spill to the heap file and pay eviction/write-back.
    ``directory``
        Where paged relations keep their heap files; ``None`` (the
        default) uses anonymous temp files, which is correct because
        the heap is scratch space — durability is the WAL/snapshot's
        job (see :class:`~repro.storage.durability.DurabilityConfig`).

    The dataclass is frozen (shareable across databases and picklable
    into shard worker specs) and validates eagerly, like
    :class:`~repro.storage.durability.DurabilityConfig`.
    """

    default_engine: str = ENGINE_ROWS
    engines: Mapping[str, str] = field(default_factory=dict)
    page_size: int = 4096
    buffer_pool_pages: int = 64
    directory: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if self.default_engine not in STORAGE_ENGINES:
            raise ValueError(
                f"default_engine must be one of {STORAGE_ENGINES}, got {self.default_engine!r}"
            )
        normalised = {}
        for name, engine in dict(self.engines).items():
            if engine not in STORAGE_ENGINES:
                raise ValueError(
                    f"engine for relation {name!r} must be one of {STORAGE_ENGINES},"
                    f" got {engine!r}"
                )
            normalised[name.lower()] = engine
        object.__setattr__(self, "engines", normalised)
        if not MIN_PAGE_SIZE <= self.page_size <= MAX_PAGE_SIZE:
            raise ValueError(
                f"page_size must be in [{MIN_PAGE_SIZE}, {MAX_PAGE_SIZE}],"
                f" got {self.page_size}"
            )
        if self.buffer_pool_pages < 1:
            raise ValueError("buffer_pool_pages must be >= 1")

    def engine_for(self, relation_name: str) -> str:
        """The engine a relation should use (override or default)."""
        return self.engines.get(relation_name.lower(), self.default_engine)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "StorageConfig":
        """Build a config from the ``REPRO_STORAGE_ENGINE`` environment variable.

        Unset, it keeps the default, so with a clean environment this is
        exactly ``StorageConfig()`` — dict rows everywhere.
        """
        env = os.environ if environ is None else environ
        engine = env.get(ENGINE_ENV, "").strip().lower()
        return cls(default_engine=engine) if engine else cls()
