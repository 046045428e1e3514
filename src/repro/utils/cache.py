"""A tiny LRU cache used by the execution and translation layers.

``functools.lru_cache`` memoizes functions; the engine needs *instance*
caches (per executor, per translator) that can be cleared on demand when
data changes, so this is a thin OrderedDict wrapper instead.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Iterator, Optional

#: How many first-sighting shape hashes the second-sighting admission of
#: the plan store and the executor remembers (an ``LRUCache`` each):
#: eight times the 512-entry plan store, so a shape that recurs within a
#: few thousand one-off shapes is still admitted.
SIGHTINGS_SIZE = 4096


class LRUCache:
    """A bounded mapping that evicts the least-recently-used entry.

    ``get`` refreshes recency; ``put`` inserts/overwrites and evicts the
    oldest entry once ``maxsize`` is exceeded.  ``maxsize=None`` disables
    eviction (unbounded).  Hit/miss/eviction counters are kept for
    observability and for tests asserting that a cache is actually being
    used (and sized sensibly: a high eviction rate means the LRU is
    thrashing and should be grown).
    """

    def __init__(self, maxsize: Optional[int] = 256) -> None:
        if maxsize is not None and maxsize <= 0:
            raise ValueError("maxsize must be positive or None")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    _MISSING = object()

    def get(self, key: Hashable, default: Any = None, record_miss: bool = True) -> Any:
        """Lookup refreshing recency.

        ``record_miss=False`` keeps a miss out of the counters — for
        *probe* lookups (``QueryTranslator.try_fast_translate``) whose
        miss is followed by a counted lookup on the slow path, so the
        stats reflect one logical request once.
        """
        value = self._data.get(key, self._MISSING)
        if value is self._MISSING:
            if record_miss:
                self.misses += 1
            return default
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def put(self, key: Hashable, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        if self.maxsize is not None and len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._data)

    @property
    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._data),
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"LRUCache(size={len(self._data)}, hits={self.hits}, misses={self.misses})"
