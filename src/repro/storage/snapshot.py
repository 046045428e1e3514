"""Atomic checkpoints of :class:`Database` state, keyed by WAL sequence.

A snapshot is a full, self-describing copy of a database — the pickled
schema plus every table's rows *with their rowids* — written
write-temp-then-rename so readers only ever see a complete file, and
checksummed so a damaged file fails typed instead of restoring garbage.
Together with the write-ahead log (:mod:`repro.storage.wal`) it forms
the recovery pair: load the newest intact snapshot, then replay the WAL
records whose sequence numbers follow its ``wal_seq``.

Rowids are part of the captured state on purpose: replayed mutations
reference rows by id (a DELETE logs the resolved rowids, not its
predicate), and insertion order — which every query result and
narration observes — is rowid order.  Restoring them exactly is what
makes recovered state *byte-identical* to the state that was lost, not
merely row-equivalent.

After a successful checkpoint the WAL can be compacted
(:meth:`WriteAheadLog.compact <repro.storage.wal.WriteAheadLog.compact>`
drops every record the snapshot already covers) and older snapshot
files pruned — the lifecycle :class:`~repro.storage.durability.DurabilityManager`
drives automatically.
"""

from __future__ import annotations

import os
import pickle
import re
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import RecoveryError, SnapshotError
from repro.storage.wal import fsync_directory

__all__ = [
    "SNAPSHOT_MAGIC",
    "SnapshotInfo",
    "latest_snapshot",
    "list_snapshots",
    "load_snapshot",
    "prune_snapshots",
    "restore_into",
    "snapshot_state",
    "write_snapshot",
]

#: File magic: identifies (and versions) the snapshot format.
SNAPSHOT_MAGIC = b"RPRSNP01"

_SNAPSHOT_HEADER = struct.Struct("!II")  # payload length, crc32

_SNAPSHOT_NAME = re.compile(r"^snapshot-(\d{20})\.ckpt$")


class SnapshotInfo:
    """One snapshot file on disk: its path and the WAL seq it covers."""

    __slots__ = ("path", "wal_seq")

    def __init__(self, path: Path, wal_seq: int) -> None:
        self.path = path
        self.wal_seq = wal_seq

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SnapshotInfo({self.path.name}, wal_seq={self.wal_seq})"


def snapshot_name(wal_seq: int) -> str:
    return f"snapshot-{wal_seq:020d}.ckpt"


def snapshot_state(database, wal_seq: int) -> Dict[str, Any]:
    """The picklable state dict a snapshot file stores."""
    tables: Dict[str, Dict[str, Any]] = {}
    for table in database.tables:
        tables[table.name] = {
            "next_rowid": table.next_rowid,
            "rows": table.export_rows(),
        }
    return {
        "format": 1,
        "schema": database.schema,
        "enforce_foreign_keys": database.enforce_foreign_keys,
        "wal_seq": wal_seq,
        "data_version": database.data_version,
        "tables": tables,
    }


def write_snapshot(
    directory: Union[str, Path], database, wal_seq: int
) -> SnapshotInfo:
    """Checkpoint ``database`` as of WAL record ``wal_seq``, atomically.

    The state is pickled, checksummed, written to a temp file, fsynced
    and renamed into place (then the directory is fsynced), so a crash
    at any point leaves either no new snapshot or a complete one.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    body = pickle.dumps(
        snapshot_state(database, wal_seq), protocol=pickle.HIGHEST_PROTOCOL
    )
    final = directory / snapshot_name(wal_seq)
    tmp = directory / (final.name + ".tmp")
    with open(tmp, "wb") as out:
        out.write(SNAPSHOT_MAGIC)
        out.write(_SNAPSHOT_HEADER.pack(len(body), zlib.crc32(body)))
        out.write(body)
        out.flush()
        os.fsync(out.fileno())
    os.replace(tmp, final)
    fsync_directory(directory)
    return SnapshotInfo(final, wal_seq)


def load_snapshot(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and verify one snapshot file; typed errors on any damage."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as error:
        raise SnapshotError(f"cannot read snapshot {path}: {error}") from error
    if not data.startswith(SNAPSHOT_MAGIC):
        raise SnapshotError(f"{path} does not start with the snapshot magic")
    header_end = len(SNAPSHOT_MAGIC) + _SNAPSHOT_HEADER.size
    if len(data) < header_end:
        raise SnapshotError(f"{path} is truncated inside its header")
    length, crc = _SNAPSHOT_HEADER.unpack(data[len(SNAPSHOT_MAGIC) : header_end])
    body = data[header_end : header_end + length]
    if len(body) != length:
        raise SnapshotError(f"{path} is truncated: {len(body)} of {length} bytes")
    if zlib.crc32(body) != crc:
        raise SnapshotError(f"{path} fails its checksum")
    try:
        state = pickle.loads(body)
    except Exception as error:
        raise SnapshotError(f"{path} does not unpickle: {error}") from error
    if not isinstance(state, dict) or state.get("format") != 1:
        raise SnapshotError(f"{path} has an unknown snapshot format")
    return state


def list_snapshots(directory: Union[str, Path]) -> List[SnapshotInfo]:
    """Every snapshot file in ``directory``, oldest first."""
    directory = Path(directory)
    if not directory.exists():
        return []
    found: List[SnapshotInfo] = []
    for entry in directory.iterdir():
        match = _SNAPSHOT_NAME.match(entry.name)
        if match:
            found.append(SnapshotInfo(entry, int(match.group(1))))
    found.sort(key=lambda info: info.wal_seq)
    return found


def latest_snapshot(directory: Union[str, Path]) -> Optional[SnapshotInfo]:
    """The newest snapshot in ``directory``, or ``None``."""
    snapshots = list_snapshots(directory)
    return snapshots[-1] if snapshots else None


def prune_snapshots(directory: Union[str, Path], keep: int = 1) -> int:
    """Delete all but the newest ``keep`` snapshots; returns how many."""
    if keep < 1:
        raise ValueError("keep must be >= 1")
    snapshots = list_snapshots(directory)
    removed = 0
    for info in snapshots[:-keep]:
        try:
            info.path.unlink()
            removed += 1
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
    return removed


def restore_into(database, state: Dict[str, Any]) -> None:
    """Replace ``database``'s contents wholesale with a snapshot's state.

    The database must have been built over an equivalent schema (same
    relation names); rows, rowids and each table's next-rowid counter
    are restored exactly, indexes are rebuilt, and every table's version
    advances — so any executor cache keyed on ``data_version`` is
    invalidated rather than serving pre-recovery results.
    """
    tables = state["tables"]
    names = {table.name for table in database.tables}
    if set(tables) != names:
        raise RecoveryError(
            "snapshot tables do not match the database schema:"
            f" snapshot has {sorted(tables)}, schema has {sorted(names)}"
        )
    for table in database.tables:
        captured = tables[table.name]
        table.restore(captured["rows"], captured["next_rowid"])
