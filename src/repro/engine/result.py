"""Query results returned by the executor."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, List, Tuple

from repro.storage.row import Row


@dataclass
class QueryResult:
    """The result of executing a SELECT statement.

    ``columns`` holds the output column names in select-list order;
    ``rows`` holds one :class:`Row` per result tuple keyed by those names.
    """

    columns: Tuple[str, ...]
    rows: List[Row] = field(default_factory=list)

    # ------------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def is_empty(self) -> bool:
        return not self.rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    # ------------------------------------------------------------------

    def column(self, name: str) -> List[Any]:
        """All values of one output column, in row order."""
        return [row.get(name) for row in self.rows]

    def to_tuples(self) -> List[Tuple[Any, ...]]:
        """Rows as plain tuples in select-list order."""
        return [tuple(row.get(c) for c in self.columns) for row in self.rows]


@dataclass
class DmlResult:
    """The result of an INSERT/UPDATE/DELETE statement."""

    statement_kind: str
    affected_rows: int

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"DmlResult({self.statement_kind}: {self.affected_rows} rows)"
