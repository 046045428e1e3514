"""Expression evaluation over rows, including nested subqueries.

The evaluator implements SQL three-valued logic in a pragmatic way:
comparisons against NULL yield ``None``; ``AND``/``OR``/``NOT`` propagate
``None``; a WHERE predicate evaluating to ``None`` filters the row out.
Subqueries (IN, EXISTS, quantified comparisons, scalar subqueries) are
delegated back to the executor through ``subquery_runner`` so correlated
queries see the current row as their outer context.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Callable, Iterable, Optional

from repro.errors import EvaluationError
from repro.sql import ast
from repro.storage.row import Row

#: Signature of the callback used to run a subquery: (select, outer_row) -> rows.
#: A runner may also carry an ``exists(select, outer_row) -> bool`` method,
#: which compiled EXISTS connectors call instead of iterating rows.
SubqueryRunner = Callable[[ast.SelectStatement, Optional[Row]], Iterable[Row]]

#: Scalar functions of exactly one argument; another count fails when evaluated.
ONE_ARGUMENT = frozenset({"LOWER", "UPPER", "LENGTH", "ABS"})


def one_argument_error(name: str, count: int) -> str:
    return f"{name} takes one argument, got {count}"


class ExpressionEvaluator:
    """Evaluate AST expressions against a :class:`Row`."""

    def __init__(self, subquery_runner: Optional[SubqueryRunner] = None) -> None:
        self._run_subquery = subquery_runner

    # ------------------------------------------------------------------

    def evaluate(self, expression: ast.Expression, row: Row) -> Any:
        """Evaluate ``expression`` against ``row`` and return its value."""
        if isinstance(expression, ast.Literal):
            return expression.value
        if isinstance(expression, ast.ColumnRef):
            return self._column_value(expression, row)
        if isinstance(expression, ast.Star):
            return 1  # only meaningful inside count(*), which special-cases it
        if isinstance(expression, ast.BinaryOp):
            return self._binary(expression, row)
        if isinstance(expression, ast.UnaryOp):
            return self._unary(expression, row)
        if isinstance(expression, ast.FunctionCall):
            return self._function(expression, row)
        if isinstance(expression, ast.IsNull):
            value = self.evaluate(expression.operand, row)
            return (value is not None) if expression.negated else (value is None)
        if isinstance(expression, ast.Between):
            return self._between(expression, row)
        if isinstance(expression, ast.InList):
            return self._in_list(expression, row)
        if isinstance(expression, ast.InSubquery):
            return self._in_subquery(expression, row)
        if isinstance(expression, ast.Exists):
            return self._exists(expression, row)
        if isinstance(expression, ast.QuantifiedComparison):
            return self._quantified(expression, row)
        if isinstance(expression, ast.ScalarSubquery):
            return self._scalar_subquery(expression, row)
        if isinstance(expression, ast.CaseExpression):
            return self._case(expression, row)
        raise EvaluationError(f"cannot evaluate expression {type(expression).__name__}")

    def matches(self, predicate: Optional[ast.Expression], row: Row) -> bool:
        """Evaluate a WHERE/HAVING predicate; NULL counts as not matching."""
        if predicate is None:
            return True
        value = self.evaluate(predicate, row)
        return bool(value) and value is not None

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------

    def _column_value(self, column: ast.ColumnRef, row: Row) -> Any:
        key = column.qualified
        resolved = row.resolve_key(key)
        if resolved is not None:
            return row.get(resolved)
        if column.table is not None:
            # A qualified reference must resolve exactly; silently falling back
            # to another binding's column would return wrong answers.
            raise EvaluationError(f"unknown column {key!r} in row {sorted(row.keys())}")
        if row.is_ambiguous(column.column):
            raise EvaluationError(f"ambiguous column reference {column.column!r}")
        resolved = row.resolve_key(column.column)
        if resolved is None:
            raise EvaluationError(f"unknown column {key!r} in row {sorted(row.keys())}")
        return row.get(resolved)

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------

    def _binary(self, expression: ast.BinaryOp, row: Row) -> Any:
        op = expression.op.upper()
        if op == "AND":
            left = self.evaluate(expression.left, row)
            if left is False:
                return False
            right = self.evaluate(expression.right, row)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return bool(left) and bool(right)
        if op == "OR":
            left = self.evaluate(expression.left, row)
            if left is True or (left is not None and left and not isinstance(left, bool)):
                return True
            right = self.evaluate(expression.right, row)
            if right:
                return True
            if left is None or right is None:
                return None
            return bool(left) or bool(right)

        left = self.evaluate(expression.left, row)
        right = self.evaluate(expression.right, row)

        if op in ("LIKE", "NOT LIKE"):
            matched = _like(left, right)
            if matched is None:
                return None
            return not matched if op == "NOT LIKE" else matched

        if op in ("=", "<>", "<", "<=", ">", ">="):
            return _compare(op, left, right)

        if left is None or right is None:
            return None
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise EvaluationError("division by zero")
            result = left / right
            if isinstance(left, int) and isinstance(right, int) and left % right == 0:
                return left // right
            return result
        if op == "%":
            if right == 0:
                raise EvaluationError("modulo by zero")
            return left % right
        if op == "||":
            return f"{left}{right}"
        raise EvaluationError(f"unsupported operator {expression.op!r}")

    def _unary(self, expression: ast.UnaryOp, row: Row) -> Any:
        value = self.evaluate(expression.operand, row)
        if expression.op.upper() == "NOT":
            if value is None:
                return None
            return not bool(value)
        if expression.op == "-":
            if value is None:
                return None
            return -value
        raise EvaluationError(f"unsupported unary operator {expression.op!r}")

    def _function(self, expression: ast.FunctionCall, row: Row) -> Any:
        name = expression.name.upper()
        if expression.is_aggregate:
            # Aggregates are computed by the Aggregate operator and stored in
            # the group row under the expression's SQL text.
            key = str(expression)
            resolved = row.resolve_key(key)
            if resolved is not None:
                return row.get(resolved)
            raise EvaluationError(
                f"aggregate {key} used outside of an aggregation context"
            )
        if name in ONE_ARGUMENT and len(expression.args) != 1:
            raise EvaluationError(one_argument_error(name, len(expression.args)))
        args = [self.evaluate(a, row) for a in expression.args]
        if name == "LOWER":
            return None if args[0] is None else str(args[0]).lower()
        if name == "UPPER":
            return None if args[0] is None else str(args[0]).upper()
        if name == "LENGTH":
            return None if args[0] is None else len(str(args[0]))
        if name == "ABS":
            return None if args[0] is None else abs(args[0])
        if name == "COALESCE":
            for value in args:
                if value is not None:
                    return value
            return None
        raise EvaluationError(f"unknown function {expression.name!r}")

    def _between(self, expression: ast.Between, row: Row) -> Any:
        value = self.evaluate(expression.operand, row)
        low = self.evaluate(expression.low, row)
        high = self.evaluate(expression.high, row)
        if value is None or low is None or high is None:
            return None
        result = low <= value <= high
        return not result if expression.negated else result

    def _in_list(self, expression: ast.InList, row: Row) -> Any:
        value = self.evaluate(expression.operand, row)
        if value is None:
            return None
        values = [self.evaluate(v, row) for v in expression.values]
        found = value in [v for v in values if v is not None]
        if not found and any(v is None for v in values):
            return None
        return not found if expression.negated else found

    # ------------------------------------------------------------------
    # Subqueries
    # ------------------------------------------------------------------

    def _require_runner(self) -> SubqueryRunner:
        if self._run_subquery is None:
            raise EvaluationError(
                "expression contains a subquery but no subquery runner is configured"
            )
        return self._run_subquery

    def _subquery_values(self, select: ast.SelectStatement, row: Row) -> list:
        rows = list(self._require_runner()(select, row))
        values = []
        for sub_row in rows:
            keys = list(sub_row.keys())
            if not keys:
                continue
            values.append(sub_row.get(keys[0]))
        return values

    def _in_subquery(self, expression: ast.InSubquery, row: Row) -> Any:
        value = self.evaluate(expression.operand, row)
        values = self._subquery_values(expression.subquery, row)
        if value is None:
            # IN is `= ANY`, and `= ANY` over an empty set is false whatever
            # the operand; over a non-empty one a NULL operand is unknown.
            if not values:
                return expression.negated
            return None
        found = value in [v for v in values if v is not None]
        if not found and any(v is None for v in values):
            result: Any = None
        else:
            result = found
        if expression.negated:
            if result is None:
                return None
            return not result
        return result

    def _exists(self, expression: ast.Exists, row: Row) -> Any:
        rows = list(self._require_runner()(expression.subquery, row))
        found = bool(rows)
        return not found if expression.negated else found

    def _quantified(self, expression: ast.QuantifiedComparison, row: Row) -> Any:
        value = self.evaluate(expression.operand, row)
        values = self._subquery_values(expression.subquery, row)
        op = expression.op
        if expression.quantifier.upper() == "ALL":
            if not values:
                return True
            results = [_compare(op, value, v) for v in values]
            if any(r is False for r in results):
                return False
            if any(r is None for r in results):
                return None
            return True
        # ANY / SOME
        if not values:
            return False
        results = [_compare(op, value, v) for v in values]
        if any(r is True for r in results):
            return True
        if any(r is None for r in results):
            return None
        return False

    def _scalar_subquery(self, expression: ast.ScalarSubquery, row: Row) -> Any:
        values = self._subquery_values(expression.subquery, row)
        if not values:
            return None
        if len(values) > 1:
            raise EvaluationError("scalar subquery returned more than one row")
        return values[0]

    def _case(self, expression: ast.CaseExpression, row: Row) -> Any:
        for condition, value in expression.whens:
            if self.matches(condition, row):
                return self.evaluate(value, row)
        if expression.else_value is not None:
            return self.evaluate(expression.else_value, row)
        return None


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def compare_values(op: str, left: Any, right: Any) -> Optional[bool]:
    """Three-valued comparison: ``None`` when either operand is NULL."""
    if left is None or right is None:
        return None
    try:
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError as exc:
        raise EvaluationError(
            f"cannot compare {left!r} and {right!r} with {op!r}"
        ) from exc
    raise EvaluationError(f"unknown comparison operator {op!r}")  # pragma: no cover


@lru_cache(maxsize=512)
def like_regex(pattern: str) -> "re.Pattern":
    """The compiled regex for a LIKE ``pattern`` (cached per pattern)."""
    regex = "^"
    for ch in pattern:
        if ch == "%":
            regex += ".*"
        elif ch == "_":
            regex += "."
        else:
            regex += re.escape(ch)
    regex += "$"
    return re.compile(regex)


def like_match(value: Any, pattern: Any) -> Optional[bool]:
    """SQL LIKE with ``%`` and ``_`` wildcards (case-sensitive)."""
    if value is None or pattern is None:
        return None
    return like_regex(str(pattern)).match(str(value)) is not None


# Backwards-compatible internal aliases.
_compare = compare_values
_like = like_match
