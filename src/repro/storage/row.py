"""Row representation used by the storage engine and the executor."""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Optional


class Row(Mapping[str, Any]):
    """An immutable mapping of qualified/unqualified column names to values.

    Rows flow from the storage engine through the executor to the NLG
    layer.  During joins the executor needs column references such as
    ``m.title`` (alias-qualified) as well as plain ``title``; a row
    therefore resolves keys with the following precedence:

    1. exact key match,
    2. case-insensitive match,
    3. unqualified match on the suffix after the last dot (only when the
       suffix is unambiguous among the row's keys).
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, Any]) -> None:
        self._values: Dict[str, Any] = dict(values)

    @classmethod
    def adopt(cls, values: Dict[str, Any]) -> "Row":
        """Wrap ``values`` without copying.

        The caller hands over ownership: the dict must not be mutated
        afterwards.  Hot paths (joins, projections) build millions of rows,
        so skipping the defensive copy of ``__init__`` matters.
        """
        row = cls.__new__(cls)
        row._values = values
        return row

    # -- Mapping protocol ------------------------------------------------

    def __getitem__(self, key: str) -> Any:
        resolved = self.resolve_key(key)
        if resolved is None:
            raise KeyError(key)
        return self._values[resolved]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and self.resolve_key(key) is not None

    # -- Lookup helpers ---------------------------------------------------

    def resolve_key(self, key: str) -> Optional[str]:
        """Return the stored key that ``key`` refers to, or ``None``."""
        if key in self._values:
            return key
        lowered = key.lower()
        for k in self._values:
            if k.lower() == lowered:
                return k
        # Unqualified lookup: match against suffix after the last dot.
        found: Optional[str] = None
        for k in self._values:
            if k.lower().rsplit(".", 1)[-1] == lowered:
                if found is not None:
                    return None  # ambiguous
                found = k
        return found

    def get(self, key: str, default: Any = None) -> Any:
        resolved = self.resolve_key(key)
        if resolved is None:
            return default
        return self._values[resolved]

    def is_ambiguous(self, key: str) -> bool:
        """True when an unqualified ``key`` matches more than one column."""
        lowered = key.lower()
        if any(k.lower() == lowered for k in self._values):
            return False
        suffix_matches = [
            k for k in self._values if k.lower().rsplit(".", 1)[-1] == lowered
        ]
        return len(suffix_matches) > 1

    # -- Construction helpers ---------------------------------------------

    def merged(self, other: "Row") -> "Row":
        """A new row containing this row's columns followed by ``other``'s."""
        return Row.adopt({**self._values, **other._values})

    def prefixed(self, prefix: str) -> "Row":
        """A new row whose keys are all qualified with ``prefix.``."""
        return Row.adopt(
            {f"{prefix}.{k.rsplit('.', 1)[-1]}": v for k, v in self._values.items()}
        )

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._values)

    @property
    def raw(self) -> Dict[str, Any]:
        """The backing dict itself (read-only by convention).

        Compiled expressions (``repro.engine.compile``) go through this to
        skip per-access dict copies; callers must never mutate it.
        """
        return self._values

    # -- Equality / representation -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._values == other._values
        if isinstance(other, Mapping):
            return self._values == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, _hashable(v)) for k, v in self._values.items())))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        inner = ", ".join(f"{k}={v!r}" for k, v in self._values.items())
        return f"Row({inner})"


def _hashable(value: Any) -> Any:
    if isinstance(value, (list, set)):
        return tuple(value)
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    return value
