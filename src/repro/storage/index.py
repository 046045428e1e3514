"""Simple hash indexes over table columns.

The engine uses these for primary-key uniqueness checks, foreign-key
lookups and hash joins.  An index maps a tuple of column values to the
set of row identifiers carrying those values.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Set, Tuple


class HashIndex:
    """A non-unique hash index on one or more columns of a table."""

    def __init__(self, name: str, columns: Sequence[str], unique: bool = False) -> None:
        if not columns:
            raise ValueError("an index must cover at least one column")
        self.name = name
        self.columns: Tuple[str, ...] = tuple(columns)
        self.unique = unique
        self._entries: Dict[Tuple[Any, ...], Set[int]] = {}

    # ------------------------------------------------------------------

    def key_for(self, values: Dict[str, Any]) -> Tuple[Any, ...]:
        """Extract the index key from a column/value mapping."""
        return tuple(values.get(column) for column in self.columns)

    def add(self, key: Tuple[Any, ...], rowid: int) -> None:
        self._entries.setdefault(key, set()).add(rowid)

    def remove(self, key: Tuple[Any, ...], rowid: int) -> None:
        bucket = self._entries.get(key)
        if bucket is None:
            return
        bucket.discard(rowid)
        if not bucket:
            del self._entries[key]

    def lookup(self, key: Tuple[Any, ...]) -> Tuple[int, ...]:
        """Row ids whose indexed columns equal ``key`` (empty when none)."""
        return tuple(sorted(self._entries.get(key, ())))

    def would_violate_unique(self, key: Tuple[Any, ...], ignore_rowid: Optional[int] = None) -> bool:
        """True if inserting ``key`` would violate a unique constraint."""
        if not self.unique:
            return False
        if any(part is None for part in key):
            # SQL semantics: NULLs never collide on uniqueness.
            return False
        existing = self._entries.get(key)
        if not existing:
            return False
        if ignore_rowid is not None and existing == {ignore_rowid}:
            return False
        return True

    def clear(self) -> None:
        """Drop every entry (used by :meth:`Table.truncate`)."""
        self._entries.clear()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values())

    def __repr__(self) -> str:  # pragma: no cover - trivial
        kind = "unique " if self.unique else ""
        return f"HashIndex({self.name}: {kind}on {', '.join(self.columns)}, {len(self)} entries)"
