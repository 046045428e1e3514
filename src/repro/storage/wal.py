"""Append-only write-ahead log with checksummed, length-prefixed records.

The WAL is the durable half of the storage engine's log-before-apply
contract: every mutation is appended (and, per the fsync policy, forced
to stable storage) *before* it touches a table, so the state of any
crashed process can be rebuilt deterministically as ``snapshot +
replay`` (:mod:`repro.storage.snapshot`, :meth:`Database.recover
<repro.storage.database.Database.recover>`).

On-disk format
--------------

The file opens with an 8-byte magic (:data:`MAGIC`); each record is::

    [length:u32 BE][crc32:u32 BE][payload:length bytes]

``payload`` is ``pickle.dumps((seq, record))`` — ``seq`` the monotonic
record sequence number, ``record`` any picklable object — and ``crc32``
covers the payload.  Sequence numbers must increase by exactly one
record-to-record, which turns silent record loss into detectable
corruption.

Recovery classification
-----------------------

:func:`scan_wal` walks the file once and classifies damage by *where*
it sits:

* a record whose bytes run past end-of-file, or whose checksum fails
  while the record is the **last** one in the file, is a *torn tail* —
  the expected debris of a crash mid-append.  The scan reports it and
  :class:`WriteAheadLog` truncates it on open, losing only the
  unacknowledged write.
* a checksum/framing/sequence failure **followed by more data** is
  *mid-log corruption*: the file was damaged after it was written, and
  guessing past it could resurrect arbitrary state.  That fails typed
  with :class:`~repro.errors.WalCorruptionError` — recovery stops and
  the operator decides.

fsync policy
------------

===========  ==============================================================
``always``   fsync after every append: survives machine/power loss per
             record (slowest).
``batch``    group commit: appends are flushed to the OS immediately
             (surviving *process* death) and fsynced every
             ``batch_every`` records or on :meth:`~WriteAheadLog.commit`;
             a power cut can lose at most the last unsynced group.
``never``    flush to the OS only: survives any process crash (SIGKILL
             included, the data sits in the page cache) but not a
             machine crash.
===========  ==============================================================

The optional ``injector`` duck-types the deterministic disk faults of
:mod:`repro.service.faults` (``fsync_stall_for``/``wal_crash_due``) so
recovery drills replay identically from a seed.
"""

from __future__ import annotations

import os
import pickle
import struct
import time
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import DurabilityError, WalCorruptionError

__all__ = [
    "FSYNC_POLICIES",
    "MAGIC",
    "WAL_NAME",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "scan_wal",
]

#: File magic: identifies (and versions) the record format.
MAGIC = b"RPRWAL01"

#: Conventional log filename inside a durability directory.
WAL_NAME = "wal.log"

#: The per-record header: payload length, then crc32 of the payload.
_RECORD_HEADER = struct.Struct("!II")

FSYNC_ALWAYS = "always"
FSYNC_BATCH = "batch"
FSYNC_NEVER = "never"
FSYNC_POLICIES = (FSYNC_ALWAYS, FSYNC_BATCH, FSYNC_NEVER)


class WalRecord:
    """One decoded log record: sequence number, payload, file position."""

    __slots__ = ("seq", "payload", "offset", "length")

    def __init__(self, seq: int, payload: Any, offset: int, length: int) -> None:
        self.seq = seq
        self.payload = payload
        self.offset = offset
        self.length = length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WalRecord(seq={self.seq}, offset={self.offset})"


class WalScan:
    """The result of one recovery scan over a WAL file."""

    __slots__ = ("path", "records", "valid_bytes", "torn_bytes", "error")

    def __init__(
        self,
        path: Path,
        records: List[WalRecord],
        valid_bytes: int,
        torn_bytes: int,
        error: Optional[WalCorruptionError] = None,
    ) -> None:
        self.path = path
        self.records = records
        #: Byte length of the valid prefix (magic + intact records); a
        #: recovery open truncates the file to exactly this length.
        self.valid_bytes = valid_bytes
        #: Bytes of torn tail after the valid prefix (0 = clean).
        self.torn_bytes = torn_bytes
        #: The mid-log corruption, when scanning non-strictly.
        self.error = error

    @property
    def last_seq(self) -> int:
        return self.records[-1].seq if self.records else 0

    @property
    def torn(self) -> bool:
        return self.torn_bytes > 0


def _encode_record(seq: int, payload: Any) -> bytes:
    body = pickle.dumps((seq, payload), protocol=pickle.HIGHEST_PROTOCOL)
    return _RECORD_HEADER.pack(len(body), zlib.crc32(body)) + body


def scan_wal(path: Union[str, Path], strict: bool = True) -> WalScan:
    """Walk a WAL file, classifying torn tails vs mid-log corruption.

    Returns every intact record in order.  A torn tail (see the module
    docstring) is reported via ``torn_bytes``, never raised.  Mid-log
    corruption raises :class:`~repro.errors.WalCorruptionError` when
    ``strict`` (the recovery default); with ``strict=False`` the scan
    stops at the damage and returns it in ``error`` instead — that is
    what ``tools/wal_dump.py`` uses to *report* a damaged log.
    """
    path = Path(path)
    if not path.exists():
        return WalScan(path, [], 0, 0)
    data = path.read_bytes()
    if not data:
        return WalScan(path, [], 0, 0)
    if not data.startswith(MAGIC):
        error = WalCorruptionError(f"{path} does not start with the WAL magic")
        if strict or len(data) < len(MAGIC):
            # A short partial magic write is unrecoverable too: there is
            # no valid prefix to keep, so even recovery must not guess.
            raise error
        return WalScan(path, [], 0, 0, error=error)
    records: List[WalRecord] = []
    offset = len(MAGIC)
    size = len(data)
    expected_seq: Optional[int] = None

    def fail(message: str) -> WalScan:
        error = WalCorruptionError(f"{path}: {message}")
        if strict:
            raise error
        return WalScan(path, records, offset, 0, error=error)

    while offset < size:
        header_end = offset + _RECORD_HEADER.size
        if header_end > size:
            return WalScan(path, records, offset, size - offset)  # torn header
        length, crc = _RECORD_HEADER.unpack(data[offset:header_end])
        body_end = header_end + length
        if body_end > size:
            return WalScan(path, records, offset, size - offset)  # torn payload
        body = data[header_end:body_end]
        last = body_end == size
        if zlib.crc32(body) != crc:
            if last:
                # A torn in-place write garbles the final record without
                # shortening the file; only the unacked tail is lost.
                return WalScan(path, records, offset, size - offset)
            return fail(
                f"checksum mismatch at record {len(records)} (offset {offset})"
                " with valid data following it"
            )
        try:
            seq, payload = pickle.loads(body)
        except Exception:
            if last:
                return WalScan(path, records, offset, size - offset)
            return fail(f"undecodable record {len(records)} (offset {offset})")
        if expected_seq is not None and seq != expected_seq:
            if last:
                return WalScan(path, records, offset, size - offset)
            return fail(
                f"sequence discontinuity at record {len(records)}:"
                f" expected seq {expected_seq}, found {seq}"
            )
        records.append(WalRecord(seq, payload, offset, body_end - offset))
        expected_seq = seq + 1
        offset = body_end
    return WalScan(path, records, offset, 0)


class WriteAheadLog:
    """An append-only, recoverable log of ``(seq, payload)`` records.

    Opening an existing file *is* recovery: the constructor scans it,
    truncates a torn tail (keeping the count in ``stats()``), fails
    typed on mid-log corruption, and positions for append with the next
    sequence number following the last intact record.  The recovered
    records are kept on :attr:`recovered` for the caller to replay.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fsync: str = FSYNC_BATCH,
        batch_every: int = 64,
        injector: Optional[Any] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if batch_every <= 0:
            raise ValueError("batch_every must be positive")
        self.path = Path(path)
        self.fsync = fsync
        self.batch_every = batch_every
        self._injector = injector
        self._appends = 0
        self._syncs = 0
        self._commits = 0
        self._compactions = 0
        self._pending_sync = 0
        self._torn_bytes_truncated = 0
        scan = scan_wal(self.path)  # strict: mid-log corruption raises
        self.recovered: List[WalRecord] = scan.records
        self._last_seq = scan.last_seq
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self.path.exists() or scan.valid_bytes == 0:
            self._file = open(self.path, "wb")
            self._file.write(MAGIC)
            self._file.flush()
            self._fsync()
        else:
            if scan.torn:
                # Drop the torn tail so appended records never interleave
                # with garbage; only the unacknowledged write is lost.
                with open(self.path, "r+b") as trimmer:
                    trimmer.truncate(scan.valid_bytes)
                self._torn_bytes_truncated = scan.torn_bytes
            self._file = open(self.path, "ab")

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """The sequence number of the most recently appended record."""
        return self._last_seq

    def set_base(self, seq: int) -> None:
        """Continue a compacted log: the next append gets ``seq + 1``.

        Compaction can leave the file with *no* records (every one was
        covered by the snapshot), and a later reopen then has no way to
        know where the sequence left off.  The owner — who knows the
        snapshot's seq — calls this right after opening.  Only legal on
        a log that holds nothing; never rewinds.
        """
        if self.recovered or self._appends:
            raise DurabilityError(
                f"{self.path}: the sequence base can only be set on an empty log"
            )
        if seq > self._last_seq:
            self._last_seq = seq

    def append(self, payload: Any, seq: Optional[int] = None) -> int:
        """Append one record and make it durable per the fsync policy.

        ``seq`` defaults to ``last_seq + 1``; an explicit value (the
        shard router supplies its own mutation sequence) must continue
        the log's sequence exactly.  Returns the sequence written.
        """
        if self._file.closed:
            raise DurabilityError(f"{self.path} is closed")
        if seq is None:
            seq = self._last_seq + 1
        elif seq != self._last_seq + 1:
            raise DurabilityError(
                f"{self.path}: append seq {seq} does not continue {self._last_seq}"
            )
        self._file.write(_encode_record(seq, payload))
        # Flush to the OS unconditionally: page-cache data survives any
        # *process* death (the crash drills SIGKILL whole tiers); fsync
        # below is about machine/power loss.
        self._file.flush()
        self._last_seq = seq
        self._appends += 1
        if self.fsync == FSYNC_ALWAYS:
            self._fsync()
        elif self.fsync == FSYNC_BATCH:
            self._pending_sync += 1
            if self._pending_sync >= self.batch_every:
                self._fsync()
        injector = self._injector
        if injector is not None and injector.wal_crash_due(self._appends):
            injector.crash()  # crash-between-append-and-ack, deterministic
        return seq

    def commit(self) -> None:
        """Force any batched appends to stable storage (group commit)."""
        self._commits += 1
        if self._pending_sync and not self._file.closed:
            self._fsync()

    def _fsync(self) -> None:
        injector = self._injector
        if injector is not None:
            stall = injector.fsync_stall_for(self._syncs + 1)
            if stall:
                time.sleep(stall)
        os.fsync(self._file.fileno())
        self._syncs += 1
        self._pending_sync = 0

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(self, up_to_seq: int) -> int:
        """Drop every record with ``seq <= up_to_seq`` (post-checkpoint).

        The surviving tail is rewritten to a temp file and atomically
        renamed over the log, so a crash mid-compaction leaves either
        the old log or the new one — never a hybrid.  Returns how many
        records were dropped.
        """
        if self._file.closed:
            raise DurabilityError(f"{self.path} is closed")
        self._file.flush()
        scan = scan_wal(self.path)
        keep = [record for record in scan.records if record.seq > up_to_seq]
        dropped = len(scan.records) - len(keep)
        data = MAGIC + b"".join(
            _encode_record(record.seq, record.payload) for record in keep
        )
        tmp = self.path.with_name(self.path.name + ".compact")
        with open(tmp, "wb") as fresh:
            fresh.write(data)
            fresh.flush()
            os.fsync(fresh.fileno())
        self._file.close()
        os.replace(tmp, self.path)
        fsync_directory(self.path.parent)
        self._file = open(self.path, "ab")
        self._pending_sync = 0
        self._compactions += 1
        return dropped

    # ------------------------------------------------------------------
    # Lifecycle / observability
    # ------------------------------------------------------------------

    def close(self) -> None:
        if not self._file.closed:
            if self._pending_sync:
                self._fsync()
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def stats(self) -> Dict[str, Any]:
        return {
            "path": str(self.path),
            "fsync": self.fsync,
            "last_seq": self._last_seq,
            "appends": self._appends,
            "syncs": self._syncs,
            "commits": self._commits,
            "compactions": self._compactions,
            "pending_sync": self._pending_sync,
            "recovered_records": len(self.recovered),
            "torn_bytes_truncated": self._torn_bytes_truncated,
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"WriteAheadLog({self.path}, last_seq={self._last_seq})"


def fsync_directory(directory: Path) -> None:
    """fsync a directory so a rename inside it is itself durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform without dir-fsync
        pass
    finally:
        os.close(fd)
