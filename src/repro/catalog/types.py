"""Scalar data types supported by the catalog and the storage engine.

The paper's examples only require integers, strings and dates, but the
type system is kept general enough for realistic schemas: each type knows
how to validate a Python value, coerce text (e.g. values read from CSV
files), and render a value for use inside a generated narrative.
"""

from __future__ import annotations

import datetime
import enum
from typing import Any, Optional

from repro.errors import TypeMismatchError


class DataType(enum.Enum):
    """Enumeration of scalar types understood by the engine."""

    INTEGER = "integer"
    FLOAT = "float"
    TEXT = "text"
    BOOLEAN = "boolean"
    DATE = "date"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_PY_TYPES = {
    DataType.INTEGER: (int,),
    DataType.FLOAT: (int, float),
    DataType.TEXT: (str,),
    DataType.BOOLEAN: (bool,),
    DataType.DATE: (datetime.date,),
}

_TRUE_WORDS = {"true", "t", "yes", "y", "1"}
_FALSE_WORDS = {"false", "f", "no", "n", "0"}


def is_valid_value(dtype: DataType, value: Any) -> bool:
    """Return ``True`` when ``value`` is acceptable for ``dtype`` (``None`` is)."""
    if value is None:
        return True
    if dtype is DataType.INTEGER and isinstance(value, bool):
        return False
    if dtype is DataType.FLOAT and isinstance(value, bool):
        return False
    return isinstance(value, _PY_TYPES[dtype])


def check_value(dtype: DataType, value: Any, context: str = "") -> Any:
    """Validate ``value`` against ``dtype`` and return it unchanged.

    Raises :class:`TypeMismatchError` when the value does not conform.
    """
    if is_valid_value(dtype, value):
        return value
    where = f" for {context}" if context else ""
    raise TypeMismatchError(
        f"value {value!r} of type {type(value).__name__} is not valid"
        f" for declared type {dtype}{where}"
    )


def coerce_value(dtype: DataType, raw: Any) -> Any:
    """Coerce ``raw`` (typically text from a loader) into a ``dtype`` value.

    ``None`` and the empty string map to ``None``.  Raises
    :class:`TypeMismatchError` when coercion is impossible.
    """
    if raw is None:
        return None
    if isinstance(raw, str) and raw == "":
        return None
    if (
        is_valid_value(dtype, raw)
        and not isinstance(raw, str)
        and not (dtype is DataType.DATE and isinstance(raw, datetime.datetime))
    ):
        return raw
    try:
        if dtype is DataType.INTEGER:
            return int(raw)
        if dtype is DataType.FLOAT:
            return float(raw)
        if dtype is DataType.TEXT:
            return str(raw)
        if dtype is DataType.BOOLEAN:
            return _coerce_bool(raw)
        if dtype is DataType.DATE:
            return _coerce_date(raw)
    except (ValueError, TypeError) as exc:
        raise TypeMismatchError(f"cannot coerce {raw!r} to {dtype}") from exc
    raise TypeMismatchError(f"cannot coerce {raw!r} to {dtype}")  # pragma: no cover


def _coerce_bool(raw: Any) -> bool:
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in _TRUE_WORDS:
        return True
    if text in _FALSE_WORDS:
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _coerce_date(raw: Any) -> datetime.date:
    if isinstance(raw, datetime.datetime):
        return raw.date()
    if isinstance(raw, datetime.date):
        return raw
    return datetime.date.fromisoformat(str(raw).strip())


def render_value(value: Any, dtype: Optional[DataType] = None) -> str:
    """Render ``value`` the way it should appear inside a generated narrative.

    Dates are spelled out ("December 1, 1935" as in the paper's Woody Allen
    example); strings are emitted verbatim; ``None`` becomes the word
    "unknown" so narratives never contain the token ``None``.
    """
    if value is None:
        return "unknown"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, datetime.date):
        return f"{value.strftime('%B')} {value.day}, {value.year}"
    if isinstance(value, float):
        if value == int(value):
            return str(int(value))
        return f"{value:g}"
    return str(value)
