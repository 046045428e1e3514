"""Durability lifecycle: config, recover-on-attach, auto-checkpointing.

:class:`DurabilityConfig` is the one knob surface callers see — a
directory, an fsync policy, and a checkpoint cadence.  The
:class:`DurabilityManager` built from it owns the moving parts: it
recovers (or baselines) a :class:`~repro.storage.database.Database`
from the directory on :meth:`~DurabilityManager.attach`, interposes as
the database's WAL so every mutation is logged before applied, counts
applied mutations, and checkpoints + compacts automatically every
``checkpoint_every`` of them.

The manager is *not* thread-safe on its own; it inherits whatever
serialisation its caller already has.  That is deliberate: the
narration session applies mutations while they hold its turn and the
shard router under its mutation lock, so adding a third lock here would
only invite ordering bugs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.storage.snapshot import prune_snapshots, write_snapshot
from repro.storage.wal import FSYNC_BATCH, FSYNC_POLICIES, WAL_NAME, WriteAheadLog

__all__ = ["DurabilityConfig", "DurabilityManager"]


@dataclass(frozen=True)
class DurabilityConfig:
    """How a session (or router) persists its database.

    ``directory``
        Where the WAL and snapshots live.  Created on demand.  One
        directory belongs to exactly one database lineage — point two
        live writers at it and the sequence check will fail fast.
    ``fsync``
        ``"always"`` / ``"batch"`` / ``"never"``; see
        :mod:`repro.storage.wal` for the precise guarantees.
    ``batch_every``
        Group-commit size under ``fsync="batch"``.
    ``checkpoint_every``
        Snapshot + compact after this many applied mutations; ``0``
        disables automatic checkpoints (explicit
        :meth:`DurabilityManager.checkpoint` still works).
    ``keep_snapshots``
        How many snapshot generations to retain after a checkpoint.
    """

    directory: Union[str, Path]
    fsync: str = FSYNC_BATCH
    batch_every: int = 64
    checkpoint_every: int = 1000
    keep_snapshots: int = 1
    injector: Optional[Any] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {self.fsync!r}"
            )
        if self.batch_every <= 0:
            raise ValueError("batch_every must be positive")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.keep_snapshots < 1:
            raise ValueError("keep_snapshots must be >= 1")

    @property
    def wal_path(self) -> Path:
        return Path(self.directory) / WAL_NAME


class DurabilityManager:
    """Owns one database's WAL + snapshot lifecycle.

    Usage::

        manager = DurabilityManager(DurabilityConfig(directory="state/"))
        manager.attach(database)   # recovers from disk, or baselines it
        ...mutate database...      # logged-before-applied automatically
        manager.checkpoint()       # optional; also happens on cadence

    ``attach`` with a non-empty directory *replaces* the database's
    contents with the recovered state — the freshly-built database is
    just a schema-shaped vessel.  With an empty directory it writes a
    baseline snapshot of the database as given, so later recoveries
    never need the original factory.
    """

    def __init__(self, config: DurabilityConfig) -> None:
        self.config = config
        self.directory = Path(config.directory)
        self._wal: Optional[WriteAheadLog] = None
        self._database: Optional[Any] = None
        self._since_checkpoint = 0
        self._checkpoints = 0
        self._checkpoint_seconds = 0.0
        self._recovered = False
        self._recovery_report: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Attach / recovery
    # ------------------------------------------------------------------

    def attach(self, database: Any) -> Any:
        """Wire ``database`` to disk; returns the database to use.

        If the directory already holds state, the returned database is a
        *new* object recovered from it (snapshot + WAL replay) and the
        argument is discarded; otherwise the argument is baselined with
        an initial snapshot and returned as-is.  Either way the result
        has this manager attached as its WAL.
        """
        from repro.storage.database import Database
        from repro.storage.snapshot import latest_snapshot
        from repro.storage.wal import scan_wal

        self.directory.mkdir(parents=True, exist_ok=True)
        has_state = (
            latest_snapshot(self.directory) is not None
            or scan_wal(self.config.wal_path, strict=False).records
        )
        if has_state:
            # Recover into the same storage engines the vessel database
            # was built with: durability composes with StorageConfig.
            database, report = Database.recover(
                self.directory,
                schema=database.schema,
                storage=database.storage_config,
            )
            self._recovered = True
            self._recovery_report = report
        self._wal = WriteAheadLog(
            self.config.wal_path,
            fsync=self.config.fsync,
            batch_every=self.config.batch_every,
            injector=self.config.injector,
        )
        if not self._wal.recovered and self._recovery_report is not None:
            # A compacted (empty) log cannot know where its sequence left
            # off; the snapshot can.
            self._wal.set_base(self._recovery_report["snapshot_seq"])
        self._database = database
        database.attach_wal(self)
        if not has_state:
            # Baseline: snapshot the database as handed to us (factory
            # data and all) so recovery never needs the factory again.
            self.checkpoint()
        return database

    @property
    def recovered(self) -> bool:
        """Whether :meth:`attach` rebuilt state from disk."""
        return self._recovered

    @property
    def recovery_report(self) -> Optional[Dict[str, Any]]:
        return self._recovery_report

    @property
    def wal(self) -> WriteAheadLog:
        if self._wal is None:
            raise RuntimeError("DurabilityManager is not attached")
        return self._wal

    # ------------------------------------------------------------------
    # WAL interface the Database calls
    # ------------------------------------------------------------------

    def append(self, payload: Any) -> int:
        return self.wal.append(payload)

    def note_applied(self) -> None:
        """One mutation applied; checkpoint when the cadence is reached.

        Runs inline on the mutating thread, which already holds the
        caller's serialisation (session turn / router mutation lock),
        so the snapshot sees a consistent database.
        """
        self._since_checkpoint += 1
        if (
            self.config.checkpoint_every
            and self._since_checkpoint >= self.config.checkpoint_every
        ):
            self.checkpoint()

    def appends_before_disk_wait(self) -> Optional[int]:
        """How many mutations can be logged before one waits on the disk.

        A mutation waits when its append syncs the log or when it reaches
        the checkpoint cadence; ``None`` when no mutation ever does.
        """
        quiet = self.wal.appends_before_sync()
        if self.config.checkpoint_every:
            due = self.config.checkpoint_every - self._since_checkpoint - 1
            quiet = due if quiet is None else min(quiet, due)
        return quiet

    def commit(self) -> None:
        """Force a group commit of batched appends."""
        self.wal.commit()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Snapshot the database now and compact the log; returns the seq.

        The order is load-bearing: fsync the log, write the snapshot
        (atomic rename), only then drop the records the snapshot covers.
        A crash between any two steps leaves a recoverable directory.
        """
        if self._database is None or self._wal is None:
            raise RuntimeError("DurabilityManager is not attached")
        started = time.perf_counter()
        seq = self._wal.last_seq
        self._wal.commit()
        write_snapshot(self.directory, self._database, seq)
        self._wal.compact(seq)
        prune_snapshots(self.directory, keep=self.config.keep_snapshots)
        self._since_checkpoint = 0
        self._checkpoints += 1
        self._checkpoint_seconds += time.perf_counter() - started
        return seq

    # ------------------------------------------------------------------
    # Lifecycle / observability
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._database is not None:
            self._database.detach_wal()
            self._database = None
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def __enter__(self) -> "DurabilityManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def stats(self) -> Dict[str, Any]:
        report = self._recovery_report
        out: Dict[str, Any] = {
            "directory": str(self.directory),
            "fsync": self.config.fsync,
            "checkpoint_every": self.config.checkpoint_every,
            "recovered": self._recovered,
            "replayed": report["replayed"] if report else 0,
            "checkpoints": self._checkpoints,
            "checkpoint_seconds": round(self._checkpoint_seconds, 6),
            "since_checkpoint": self._since_checkpoint,
        }
        if self._wal is not None:
            out["wal"] = self._wal.stats()
        return out

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"DurabilityManager({self.directory})"
