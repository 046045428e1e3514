"""Fused column-at-a-time scans over columnar arrays.

When a scan's table exposes :meth:`~repro.storage.api.TableStorage.columnar_arrays`
(the columnar engine does), the compiled executor runs a filter chain
directly over a full scan, and a projection over one, as passes over
position lists instead of a closure call per row, with no tuple for a
row the filter rejects.  The subset is the one the query corpora reach:

* conjuncts ``col CMP literal`` (either side), ``col [NOT] LIKE
  literal``, ``col BETWEEN literal AND literal`` and ``col IS [NOT]
  NULL`` over a column of the scanned binding, fused into one chain
  that narrows the selection conjunct by conjunct.  A shape plan's
  parameter literals read the bound parameter vector through the
  ordinal map, so one chain serves every literal variant;
* projections of plain columns of the scanned binding.

Anything else raises :class:`VectorUnsupported` at compile time and the
node runs on the row path, which is the reference.  A fused conjunct can
still raise on the data (``m.title > 5`` compares text with a number);
the executor treats any expected evaluation error (``EvaluationError``,
``TypeError``, ``ZeroDivisionError``) as "not vectorizable for this
data" and re-runs the node and its chain row at a time, once, which
raises exactly the error the oracle raises.  Selection order is
position order == insertion order, matching the row scan.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.evaluator import like_regex
from repro.sql import ast

__all__ = ["VectorUnsupported", "VectorExpressionCompiler"]

#: arrays are ``{attribute name: column list}``; ``n`` is the row count.
Arrays = Dict[str, List[Any]]
#: A selection: positions (insertion order) surviving a predicate.
Selection = Sequence[int]

_COMPARISONS: Dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: ``lit OP col`` rewritten as ``col OP' lit``.
_SWAPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class VectorUnsupported(Exception):
    """Raised at compile time: expression outside the vectorized subset."""


class VectorExpressionCompiler:
    """Compile fused scan filters and plain-column projections.

    One compiler per (relation, binding): column references are
    resolved against the relation's attributes at *compile* time, so
    the generated closures index straight into the arrays dict.
    ``params`` and ``ordinals`` are the row compiler's (see
    :class:`repro.engine.compile.ExpressionCompiler`): a literal in the
    ordinal map reads its position in ``params[0]`` each time the chain
    runs.
    """

    def __init__(
        self,
        relation,
        binding: str,
        params: Optional[List[Tuple[Any, ...]]] = None,
        ordinals: Optional[Dict[int, int]] = None,
    ) -> None:
        self._binding = (binding or "").lower()
        self._attrs = {a.name.lower(): a.name for a in relation.attributes}
        self._params = params
        self._ordinals = ordinals or {}

    # -- public entry points -------------------------------------------

    def compile_conjunction(
        self, predicates: Sequence[ast.Expression]
    ) -> Callable[[Arrays, int], Selection]:
        """Compile stacked WHERE predicates (innermost first) to one selection.

        The planner splits ``a AND b`` into stacked filter nodes; this
        fuses the whole stack back into a single narrowing chain, so a
        range scan plus a LIKE runs as two passes over shrinking
        position lists, with no intermediate boolean lists.
        """
        tests = [
            self._fused_test(conjunct)
            for predicate in predicates
            for conjunct in ast.conjuncts(predicate)
        ]

        def run(arrays: Arrays, n: int) -> Selection:
            selection: Optional[List[int]] = None
            for test in tests:
                selection = test(arrays, selection)
                if not selection:
                    return []
            return selection if selection is not None else range(n)

        return run

    def compile_projection(
        self, items: Sequence[ast.Expression]
    ) -> Callable[[Arrays, Selection], List[Tuple[Any, ...]]]:
        """Compile plain-column select items to a builder of their rows."""
        return _row_builder([self._column(e) for e in items])

    def compile_scan_rows(self) -> Callable[[Arrays, Selection], List[Tuple[Any, ...]]]:
        """A builder of the scan's own rows: every attribute in declaration
        order, the row path's scan layout, so a vectorized filter's rows
        are indistinguishable from the row path's."""
        return _row_builder(list(self._attrs.values()))

    # -- operands ------------------------------------------------------

    def _column(self, e: ast.Expression) -> str:
        """The canonical attribute name of a scanned column, or VectorUnsupported."""
        if not isinstance(e, ast.ColumnRef):
            raise VectorUnsupported(type(e).__name__)
        if e.table is not None and e.table.lower() != self._binding:
            raise VectorUnsupported(f"column {e.qualified} outside scan binding")
        canonical = self._attrs.get(e.column.lower())
        if canonical is None:
            # Unknown column: the row path owns the error message.
            raise VectorUnsupported(f"unknown column {e.qualified}")
        return canonical

    def _value(self, e: ast.Expression) -> Callable[[], Any]:
        """A thunk reading a literal operand, or VectorUnsupported."""
        if not isinstance(e, ast.Literal):
            raise VectorUnsupported(type(e).__name__)
        position = self._ordinals.get(id(e))
        if position is None:
            value = e.value
            return lambda: value
        params = self._params
        return lambda: params[0][position]

    def _fused_test(self, e: ast.Expression):
        """A narrowing closure for one conjunct, or VectorUnsupported."""
        if isinstance(e, ast.BinaryOp):
            op = e.op.upper()
            if op in _COMPARISONS:
                if isinstance(e.right, ast.Literal):
                    column, literal = e.left, e.right
                else:
                    column, literal, op = e.right, e.left, _SWAPPED[op]
                return _compare_test(
                    self._column(column), _COMPARISONS[op], self._value(literal)
                )
            if op in ("LIKE", "NOT LIKE"):
                return _like_test(
                    self._column(e.left), self._value(e.right), op == "NOT LIKE"
                )
        elif isinstance(e, ast.Between) and not e.negated:
            return _between_test(
                self._column(e.operand), self._value(e.low), self._value(e.high)
            )
        elif isinstance(e, ast.IsNull):
            return _is_null_test(self._column(e.operand), e.negated)
        raise VectorUnsupported(f"conjunct {e}")


# ----------------------------------------------------------------------
# Fused-test closures: ``test(arrays, selection)`` narrows ``selection``
# (None = every position) to the positions where the conjunct holds.
# ----------------------------------------------------------------------


def _compare_test(name: str, cmp, thunk):
    def test(arrays: Arrays, selection: Optional[List[int]]):
        const = thunk()
        if const is None:
            return []  # NULL comparisons never match
        column = arrays[name]
        positions = range(len(column)) if selection is None else selection
        return [i for i in positions if (v := column[i]) is not None and cmp(v, const)]

    return test


def _like_test(name: str, pattern_thunk, negate: bool):
    def test(arrays: Arrays, selection: Optional[List[int]]):
        pattern = pattern_thunk()
        if pattern is None:
            return []
        match = like_regex(str(pattern)).match
        column = arrays[name]
        positions = range(len(column)) if selection is None else selection
        return [
            i
            for i in positions
            if (v := column[i]) is not None and (match(str(v)) is None) is negate
        ]

    return test


def _between_test(name: str, low_thunk, high_thunk):
    def test(arrays: Arrays, selection: Optional[List[int]]):
        low = low_thunk()
        high = high_thunk()
        if low is None or high is None:
            return []
        column = arrays[name]
        positions = range(len(column)) if selection is None else selection
        return [i for i in positions if (v := column[i]) is not None and low <= v <= high]

    return test


def _is_null_test(name: str, negated: bool):
    def test(arrays: Arrays, selection: Optional[List[int]]):
        column = arrays[name]
        positions = range(len(column)) if selection is None else selection
        return [i for i in positions if (column[i] is None) is not negated]

    return test


def _row_builder(names: Sequence[str]) -> Callable[[Arrays, Selection], List[Tuple[Any, ...]]]:
    """Rows of the columns ``names``, one per selected position, in order."""

    def build(arrays: Arrays, selection: Selection) -> List[Tuple[Any, ...]]:
        columns = [arrays[name] for name in names]
        if len(selection) == 1:
            return [tuple(column[selection[0]] for column in columns)]
        if isinstance(selection, range) or not selection:
            return list(zip(*(column[: len(selection)] for column in columns)))
        pick = operator.itemgetter(*selection)
        return list(zip(*(pick(column) for column in columns)))

    return build
