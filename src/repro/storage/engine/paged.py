"""Paged heap engine: slotted pages on disk behind an LRU buffer pool.

The engine that lets a relation outgrow RAM: row payloads live in
fixed-size pages in a heap file owned by a :class:`DiskManager`, and
only ``buffer_pool_pages`` of them are resident at a time, managed by a
:class:`BufferManager` with pin/unpin semantics, LRU eviction of
unpinned frames, and dirty-page write-back.

Page format (little-endian, ``page_size`` bytes)::

    0      2      4                    free_start          page_size
    +------+------+--------------------+--------...--------+
    | nslt | free | slot directory     |   free space      |
    +------+------+--------------------+-------------------+
    ...payloads grow downward from page_size toward free_start...

* ``nslt`` (u16): number of slot directory entries ever allocated.
* ``free`` (u16): offset where the payload region currently begins
  (payloads are written back-to-front).
* slot ``i`` at byte ``4 + 4*i``: ``(offset u16, length u16)``.  An
  offset of 0 marks a dead slot (payloads can never start at 0).

Records are the row's values pickled as a tuple in attribute
declaration order — decoding zips them back with the attribute names,
so reconstructed dicts have exactly the key order every engine
guarantees.  Updates rewrite in place when the new payload fits the old
slot, otherwise the slot dies and the record is relocated (its rowid —
and therefore its scan position, tracked by the in-memory
``_locations`` map — is unchanged).

The heap file is *scratch space*, not the durability story: recovery
always reconstructs contents from snapshot + WAL (``restore`` truncates
and rewrites the heap), so a stale or missing heap file can never
resurrect deleted data.  Records too large for any page (wider than
``page_size - 12`` bytes once pickled) overflow to an in-memory side
table rather than failing — counted in :meth:`PagedHeapStorage.stats`
so a mis-sized ``page_size`` is visible.
"""

from __future__ import annotations

import pickle
import struct
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.catalog.relation import Relation
from repro.storage.engine.base import BaseTableStorage

_HEADER = struct.Struct("<HH")
_SLOT = struct.Struct("<HH")
PAGE_HEADER_SIZE = _HEADER.size
SLOT_SIZE = _SLOT.size

#: Smallest page that still fits the header, one slot, and a few bytes
#: of payload.  StorageConfig validates against this.
MIN_PAGE_SIZE = 128
#: Largest page whose offsets fit the u16 slot directory.
MAX_PAGE_SIZE = 65536


def max_record_size(page_size: int) -> int:
    """The largest payload a single fresh page can hold."""
    return page_size - PAGE_HEADER_SIZE - SLOT_SIZE


class DiskManager:
    """Fixed-size page I/O over one heap file.

    With ``path=None`` an anonymous temp file backs the heap (deleted by
    the OS when closed) — the right default because the heap is scratch
    space.  A real path keeps the file around for inspection.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None, page_size: int = 4096) -> None:
        self.page_size = page_size
        self.path = Path(path) if path is not None else None
        if self.path is None:
            self._file = tempfile.TemporaryFile(prefix="repro-heap-")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "w+b")
        self._page_count = 0
        self.reads = 0
        self.writes = 0

    @property
    def page_count(self) -> int:
        return self._page_count

    def allocate(self) -> int:
        """Reserve a new zeroed page; returns its page id."""
        page_id = self._page_count
        self._page_count += 1
        self._file.seek(page_id * self.page_size)
        self._file.write(b"\x00" * self.page_size)
        return page_id

    def read(self, page_id: int) -> bytes:
        if not 0 <= page_id < self._page_count:
            raise ValueError(f"page {page_id} not allocated (have {self._page_count})")
        self._file.seek(page_id * self.page_size)
        data = self._file.read(self.page_size)
        self.reads += 1
        if len(data) < self.page_size:
            # A crash can leave the file short; the tail reads as zeros.
            data = data + b"\x00" * (self.page_size - len(data))
        return data

    def write(self, page_id: int, data: bytes) -> None:
        if len(data) != self.page_size:
            raise ValueError(
                f"page write must be exactly {self.page_size} bytes, got {len(data)}"
            )
        self._file.seek(page_id * self.page_size)
        self._file.write(data)
        self.writes += 1

    def flush(self) -> None:
        """Hand buffered writes to the operating system (no fsync: the WAL
        owns durability)."""
        self._file.flush()

    def reset(self) -> None:
        """Drop every page (truncate the heap to empty)."""
        self._file.seek(0)
        self._file.truncate(0)
        self._page_count = 0

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def stats(self) -> Dict[str, Any]:
        return {
            "page_size": self.page_size,
            "pages": self._page_count,
            "reads": self.reads,
            "writes": self.writes,
            "path": str(self.path) if self.path is not None else None,
        }


class SlottedPage:
    """Mutable view over one page buffer implementing the slot directory."""

    __slots__ = ("buffer", "page_size")

    def __init__(self, buffer: bytearray, page_size: int) -> None:
        self.buffer = buffer
        self.page_size = page_size

    @property
    def slot_count(self) -> int:
        return _HEADER.unpack_from(self.buffer, 0)[0]

    @property
    def free_start(self) -> int:
        start = _HEADER.unpack_from(self.buffer, 0)[1]
        # A zeroed (fresh) page reads free_start == 0: payloads start at
        # the page end.
        return start or self.page_size

    def _set_header(self, slot_count: int, free_start: int) -> None:
        _HEADER.pack_into(self.buffer, 0, slot_count, free_start)

    def free_space(self) -> int:
        return self.free_start - PAGE_HEADER_SIZE - self.slot_count * SLOT_SIZE

    def insert(self, record: bytes) -> Optional[int]:
        """Store ``record``; returns its slot number or None when full."""
        need = len(record) + SLOT_SIZE
        if self.free_space() < need:
            return None
        slot = self.slot_count
        offset = self.free_start - len(record)
        self.buffer[offset : offset + len(record)] = record
        _SLOT.pack_into(self.buffer, PAGE_HEADER_SIZE + slot * SLOT_SIZE, offset, len(record))
        self._set_header(slot + 1, offset)
        return slot

    def read(self, slot: int) -> Optional[bytes]:
        if not 0 <= slot < self.slot_count:
            return None
        offset, length = _SLOT.unpack_from(self.buffer, PAGE_HEADER_SIZE + slot * SLOT_SIZE)
        if offset == 0:
            return None  # dead slot
        return bytes(self.buffer[offset : offset + length])

    def delete(self, slot: int) -> None:
        """Kill a slot (its payload bytes are abandoned, not reclaimed)."""
        _SLOT.pack_into(self.buffer, PAGE_HEADER_SIZE + slot * SLOT_SIZE, 0, 0)

    def update_in_place(self, slot: int, record: bytes) -> bool:
        """Overwrite a slot's payload when it fits; False means relocate."""
        offset, length = _SLOT.unpack_from(self.buffer, PAGE_HEADER_SIZE + slot * SLOT_SIZE)
        if offset == 0 or len(record) > length:
            return False
        self.buffer[offset : offset + len(record)] = record
        _SLOT.pack_into(self.buffer, PAGE_HEADER_SIZE + slot * SLOT_SIZE, offset, len(record))
        return True


class BufferManager:
    """LRU page cache with pin counts and dirty write-back.

    Contract:

    * :meth:`pin` returns the page's mutable buffer and holds it
      resident until the matching :meth:`unpin`; pass ``dirty=True`` at
      unpin if the buffer was modified.
    * Eviction considers only unpinned frames, least-recently-used
      first, and writes dirty victims back before dropping them.
    * If every frame is pinned the pool grows past ``capacity`` rather
      than deadlocking (counted in ``overflows`` — a correctly written
      caller pins at most a couple of pages at a time).
    """

    class _Frame:
        __slots__ = ("buffer", "pins", "dirty")

        def __init__(self, buffer: bytearray) -> None:
            self.buffer = buffer
            self.pins = 0
            self.dirty = False

    def __init__(self, disk: DiskManager, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("buffer pool capacity must be >= 1")
        self.disk = disk
        self.capacity = capacity
        self._frames: "OrderedDict[int, BufferManager._Frame]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.write_backs = 0
        self.overflows = 0

    def pin(self, page_id: int) -> bytearray:
        frame = self._frames.get(page_id)
        if frame is not None:
            self._frames.move_to_end(page_id)
            frame.pins += 1
            self.hits += 1
            return frame.buffer
        self.misses += 1
        while len(self._frames) >= self.capacity:
            if not self._evict_one():
                self.overflows += 1
                break
        frame = self._Frame(bytearray(self.disk.read(page_id)))
        frame.pins = 1
        self._frames[page_id] = frame
        return frame.buffer

    def unpin(self, page_id: int, dirty: bool = False) -> None:
        frame = self._frames[page_id]
        if frame.pins <= 0:
            raise RuntimeError(f"unpin of page {page_id} which is not pinned")
        frame.pins -= 1
        if dirty:
            frame.dirty = True

    def _evict_one(self) -> bool:
        for page_id, frame in self._frames.items():  # LRU order
            if frame.pins == 0:
                if frame.dirty:
                    self.disk.write(page_id, bytes(frame.buffer))
                    self.write_backs += 1
                del self._frames[page_id]
                self.evictions += 1
                return True
        return False

    def flush(self) -> None:
        """Write every dirty resident page back to disk."""
        for page_id, frame in self._frames.items():
            if frame.dirty:
                self.disk.write(page_id, bytes(frame.buffer))
                frame.dirty = False
                self.write_backs += 1

    def clear(self) -> None:
        """Drop every frame without write-back (heap was reset)."""
        self._frames.clear()

    @property
    def resident(self) -> int:
        return len(self._frames)

    def stats(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "resident": len(self._frames),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "write_backs": self.write_backs,
            "overflows": self.overflows,
        }


class PagedHeapStorage(BaseTableStorage):
    """Slotted-page heap behind a buffer pool; spills past RAM."""

    engine_name = "paged"

    def __init__(
        self,
        relation: Relation,
        page_size: int = 4096,
        buffer_pool_pages: int = 64,
        directory: Optional[Union[str, Path]] = None,
    ) -> None:
        if not MIN_PAGE_SIZE <= page_size <= MAX_PAGE_SIZE:
            raise ValueError(
                f"page_size must be in [{MIN_PAGE_SIZE}, {MAX_PAGE_SIZE}], got {page_size}"
            )
        self._names: Tuple[str, ...] = tuple(a.name for a in relation.attributes)
        path = None
        if directory is not None:
            path = Path(directory) / f"{relation.name.lower()}.heap"
        self.disk = DiskManager(path, page_size=page_size)
        self.buffers = BufferManager(self.disk, buffer_pool_pages)
        #: rowid -> (page id, slot); dict insertion order is scan order.
        self._locations: Dict[int, Tuple[int, int]] = {}
        #: Records wider than a page; kept in memory, counted in stats().
        self._oversize: Dict[int, bytes] = {}
        self._fill_page: Optional[int] = None
        super().__init__(relation)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def _encode(self, values: Dict[str, Any]) -> bytes:
        return pickle.dumps(
            tuple(values.get(name) for name in self._names),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def _decode(self, record: bytes) -> Dict[str, Any]:
        return dict(zip(self._names, pickle.loads(record)))

    # ------------------------------------------------------------------
    # Physical primitives
    # ------------------------------------------------------------------

    def _store_row(self, rowid: int, values: Dict[str, Any]) -> None:
        record = self._encode(values)
        if rowid in self._oversize:
            if len(record) > max_record_size(self.disk.page_size):
                self._oversize[rowid] = record
                return
            # Shrunk back under the page limit: move onto a page.  The
            # rowid keeps its position in _locations insertion order?
            # It was never in _locations, so it re-enters at the end —
            # but an oversize row was already *stored*, so this is an
            # update and order is defined by _locations plus _oversize
            # interleave, handled in _iter_items via rowid sort-merge.
            del self._oversize[rowid]
            self._locations[rowid] = self._place(record)
            return
        location = self._locations.get(rowid)
        if location is None:
            if len(record) > max_record_size(self.disk.page_size):
                self._oversize[rowid] = record
                return
            self._locations[rowid] = self._place(record)
            return
        page_id, slot = location
        buffer = self.buffers.pin(page_id)
        page = SlottedPage(buffer, self.disk.page_size)
        if page.update_in_place(slot, record):
            self.buffers.unpin(page_id, dirty=True)
            return
        page.delete(slot)
        self.buffers.unpin(page_id, dirty=True)
        if len(record) > max_record_size(self.disk.page_size):
            del self._locations[rowid]
            self._oversize[rowid] = record
            return
        # Relocate without disturbing scan order: replacing the value of
        # an existing dict key keeps its position.
        self._locations[rowid] = self._place(record)

    def _place(self, record: bytes) -> Tuple[int, int]:
        """Append ``record`` to the fill page, allocating when needed."""
        if self._fill_page is not None:
            page_id = self._fill_page
            buffer = self.buffers.pin(page_id)
            slot = SlottedPage(buffer, self.disk.page_size).insert(record)
            self.buffers.unpin(page_id, dirty=slot is not None)
            if slot is not None:
                return page_id, slot
        page_id = self.disk.allocate()
        self._fill_page = page_id
        buffer = self.buffers.pin(page_id)
        slot = SlottedPage(buffer, self.disk.page_size).insert(record)
        self.buffers.unpin(page_id, dirty=True)
        assert slot is not None  # a fresh page always fits a legal record
        return page_id, slot

    def _get_row(self, rowid: int) -> Optional[Dict[str, Any]]:
        record = self._oversize.get(rowid)
        if record is not None:
            return self._decode(record)
        location = self._locations.get(rowid)
        if location is None:
            return None
        page_id, slot = location
        buffer = self.buffers.pin(page_id)
        record = SlottedPage(buffer, self.disk.page_size).read(slot)
        self.buffers.unpin(page_id)
        if record is None:  # pragma: no cover - location map is authoritative
            return None
        return self._decode(record)

    def _pop_row(self, rowid: int) -> Optional[Dict[str, Any]]:
        record = self._oversize.pop(rowid, None)
        if record is not None:
            return self._decode(record)
        location = self._locations.pop(rowid, None)
        if location is None:
            return None
        page_id, slot = location
        buffer = self.buffers.pin(page_id)
        page = SlottedPage(buffer, self.disk.page_size)
        record = page.read(slot)
        page.delete(slot)
        self.buffers.unpin(page_id, dirty=True)
        if record is None:  # pragma: no cover - location map is authoritative
            return None
        return self._decode(record)

    def _iter_items(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        if not self._oversize:
            for rowid, (page_id, slot) in list(self._locations.items()):
                buffer = self.buffers.pin(page_id)
                record = SlottedPage(buffer, self.disk.page_size).read(slot)
                self.buffers.unpin(page_id)
                if record is not None:
                    yield rowid, self._decode(record)
            return
        # Oversize rows must interleave in rowid (== insertion) order.
        for rowid in sorted(
            list(self._locations.keys()) + list(self._oversize.keys())
        ):
            values = self._get_row(rowid)
            if values is not None:
                yield rowid, values

    def _clear_rows(self) -> None:
        self.buffers.clear()
        self.disk.reset()
        self._locations.clear()
        self._oversize.clear()
        self._fill_page = None

    def _row_count(self) -> int:
        return len(self._locations) + len(self._oversize)

    def has_row(self, rowid: int) -> bool:
        return rowid in self._locations or rowid in self._oversize

    # ------------------------------------------------------------------
    # Lifecycle / observability
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Write dirty buffered pages to the heap file."""
        self.buffers.flush()
        self.disk.flush()

    def close(self) -> None:
        self.buffers.flush()
        self.disk.close()

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["disk"] = self.disk.stats()
        out["buffer_pool"] = self.buffers.stats()
        out["oversize_rows"] = len(self._oversize)
        return out
