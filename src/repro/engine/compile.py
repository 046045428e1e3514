"""Expression compilation: AST → Python closures.

The interpreted :class:`~repro.engine.evaluator.ExpressionEvaluator`
re-walks the AST for every row, paying an ``isinstance`` dispatch chain
per node and an O(columns) :meth:`Row.resolve_key` scan per column
reference.  The compiler walks the AST *once* and emits a tree of nested
closures in which

* operator dispatch happens at compile time (each closure knows what it
  computes),
* column references carry a pre-resolved slot: after the first row of a
  given shape, reading a column is a single dict probe, and
* LIKE patterns against literals are compiled to regexes once.

Compiled closures implement exactly the evaluator's semantics (SQL
three-valued logic, NULL propagation, ambiguity errors); the property
tests in ``tests/test_engine_compile.py`` assert the two paths agree on
the paper queries and the generated workload.

A literal whose node is in the compiler's ordinal map compiles to a read
of a bound parameter vector instead of its baked value: that is how one
shape plan (see :mod:`repro.engine.parameterised`) serves every literal
variant of its SQL shape.  The map is empty outside a shape-plan run.
Nothing is memoized here: the executor compiles a plan's closures once,
when it builds the plan's runners, and keeps the runners.

Subqueries are delegated to the ``subquery_runner`` callback — the
executor supplies one that answers key-correlated subqueries from
once-per-statement hash tables and memoizes the rest on their outer
values, which is what makes the nested paper queries (Q5/Q6/Q7) cheap.
EXISTS connectors only ask whether rows exist: when the runner has an
``exists`` method they call it, which lets the executor decide a
relational division (Q6) by set containment without producing rows.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.evaluator import (
    ONE_ARGUMENT,
    SubqueryRunner,
    compare_values,
    like_regex,
    one_argument_error,
)
from repro.errors import EvaluationError
from repro.sql import ast
from repro.storage.row import Row

#: A compiled expression: row in, value out.
CompiledExpr = Callable[[Row], Any]

_COMPARISONS: Dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class ExpressionCompiler:
    """Compile AST expressions into closures over :class:`Row`.

    ``ordinals`` maps ``id(literal node)`` to a position in ``params[0]``,
    the literal vector of the query being served; the executor installs
    a shape plan's map for the length of its run.
    """

    def __init__(
        self,
        subquery_runner: Optional[SubqueryRunner] = None,
        params: Optional[List[Tuple[Any, ...]]] = None,
    ) -> None:
        self._run_subquery = subquery_runner
        self.params: List[Tuple[Any, ...]] = params if params is not None else [()]
        self.ordinals: Dict[int, int] = {}

    # ------------------------------------------------------------------

    def compile_predicate(self, predicate: Optional[ast.Expression]) -> Callable[[Row], bool]:
        """Compile a WHERE/HAVING predicate; NULL counts as not matching."""
        if predicate is None:
            return lambda row: True
        fn = self.compile(predicate)

        def run(row: Row) -> bool:
            value = fn(row)
            return bool(value) and value is not None

        return run

    def _is_constant(self, literal: ast.Literal) -> bool:
        """Whether ``literal``'s value may be baked into the closure.

        Parameter literals stay out of the value-specialised fast paths
        (LIKE regexes compiled once, IN lists frozen into sets), so their
        closures read the bound parameter vector instead.
        """
        return id(literal) not in self.ordinals

    # ------------------------------------------------------------------

    def compile(self, e: ast.Expression) -> CompiledExpr:
        """Compile ``e`` into a closure."""
        if isinstance(e, ast.Literal):
            position = self.ordinals.get(id(e))
            if position is not None:
                params = self.params
                return lambda row: params[0][position]
            value = e.value
            return lambda row: value
        if isinstance(e, ast.ColumnRef):
            return self._compile_column(e)
        if isinstance(e, ast.Star):
            return lambda row: 1  # only meaningful inside count(*)
        if isinstance(e, ast.BinaryOp):
            return self._compile_binary(e)
        if isinstance(e, ast.UnaryOp):
            return self._compile_unary(e)
        if isinstance(e, ast.FunctionCall):
            return self._compile_function(e)
        if isinstance(e, ast.IsNull):
            return self._compile_is_null(e)
        if isinstance(e, ast.Between):
            return self._compile_between(e)
        if isinstance(e, ast.InList):
            return self._compile_in_list(e)
        if isinstance(e, ast.InSubquery):
            return self._compile_in_subquery(e)
        if isinstance(e, ast.Exists):
            return self._compile_exists(e)
        if isinstance(e, ast.QuantifiedComparison):
            return self._compile_quantified(e)
        if isinstance(e, ast.ScalarSubquery):
            return self._compile_scalar_subquery(e)
        if isinstance(e, ast.CaseExpression):
            return self._compile_case(e)
        return _raising(f"cannot evaluate expression {type(e).__name__}")

    # ------------------------------------------------------------------
    # Columns: pre-resolved slots
    # ------------------------------------------------------------------

    def _compile_column(self, column: ast.ColumnRef) -> CompiledExpr:
        key = column.qualified
        table = column.table
        name = column.column
        # The resolved slot is cached per row *shape* (the tuple of keys):
        # rows streaming through one plan operator share a shape, so after
        # the first row every access is a dict probe.  The exact-match
        # fast path above it needs no shape check at all.
        cached_sig: Optional[Tuple[str, ...]] = None
        cached_slot: Optional[str] = None

        def run(row: Row) -> Any:
            nonlocal cached_sig, cached_slot
            values = row.raw
            if key in values:
                return values[key]
            sig = tuple(values)
            if sig == cached_sig:
                return values[cached_slot]
            resolved = row.resolve_key(key)
            if resolved is None:
                if table is None and row.is_ambiguous(name):
                    raise EvaluationError(f"ambiguous column reference {name!r}")
                raise EvaluationError(
                    f"unknown column {key!r} in row {sorted(values)}"
                )
            cached_sig, cached_slot = sig, resolved
            return values[resolved]

        return run

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------

    def _compile_binary(self, e: ast.BinaryOp) -> CompiledExpr:
        op = e.op.upper()
        if op == "AND":
            lf, rf = self.compile(e.left), self.compile(e.right)

            def run_and(row: Row) -> Any:
                left = lf(row)
                if left is False:
                    return False
                right = rf(row)
                if right is False:
                    return False
                if left is None or right is None:
                    return None
                return bool(left) and bool(right)

            return run_and
        if op == "OR":
            lf, rf = self.compile(e.left), self.compile(e.right)

            def run_or(row: Row) -> Any:
                left = lf(row)
                if left is True or (left is not None and left and not isinstance(left, bool)):
                    return True
                right = rf(row)
                if right:
                    return True
                if left is None or right is None:
                    return None
                return bool(left) or bool(right)

            return run_or

        lf, rf = self.compile(e.left), self.compile(e.right)

        if op in ("LIKE", "NOT LIKE"):
            negate = op == "NOT LIKE"
            # Literal patterns (the common case) compile to a regex once.
            if (
                isinstance(e.right, ast.Literal)
                and e.right.value is not None
                and self._is_constant(e.right)
            ):
                matcher = like_regex(str(e.right.value)).match

                def run_like_lit(row: Row) -> Any:
                    value = lf(row)
                    if value is None:
                        return None
                    matched = matcher(str(value)) is not None
                    return not matched if negate else matched

                return run_like_lit

            def run_like(row: Row) -> Any:
                value, pattern = lf(row), rf(row)
                if value is None or pattern is None:
                    return None
                matched = like_regex(str(pattern)).match(str(value)) is not None
                return not matched if negate else matched

            return run_like

        comparison = _COMPARISONS.get(op)
        if comparison is not None:

            def run_compare(row: Row) -> Any:
                left, right = lf(row), rf(row)
                if left is None or right is None:
                    return None
                try:
                    return comparison(left, right)
                except TypeError as exc:
                    raise EvaluationError(
                        f"cannot compare {left!r} and {right!r} with {op!r}"
                    ) from exc

            return run_compare

        if op in ("+", "-", "*"):
            arith = {"+": operator.add, "-": operator.sub, "*": operator.mul}[op]

            def run_arith(row: Row) -> Any:
                left, right = lf(row), rf(row)
                if left is None or right is None:
                    return None
                return arith(left, right)

            return run_arith
        if op == "/":

            def run_div(row: Row) -> Any:
                left, right = lf(row), rf(row)
                if left is None or right is None:
                    return None
                if right == 0:
                    raise EvaluationError("division by zero")
                result = left / right
                if isinstance(left, int) and isinstance(right, int) and left % right == 0:
                    return left // right
                return result

            return run_div
        if op == "%":

            def run_mod(row: Row) -> Any:
                left, right = lf(row), rf(row)
                if left is None or right is None:
                    return None
                if right == 0:
                    raise EvaluationError("modulo by zero")
                return left % right

            return run_mod
        if op == "||":

            def run_concat(row: Row) -> Any:
                left, right = lf(row), rf(row)
                if left is None or right is None:
                    return None
                return f"{left}{right}"

            return run_concat
        return _raising(f"unsupported operator {e.op!r}")

    def _compile_unary(self, e: ast.UnaryOp) -> CompiledExpr:
        fn = self.compile(e.operand)
        if e.op.upper() == "NOT":

            def run_not(row: Row) -> Any:
                value = fn(row)
                if value is None:
                    return None
                return not bool(value)

            return run_not
        if e.op == "-":

            def run_neg(row: Row) -> Any:
                value = fn(row)
                if value is None:
                    return None
                return -value

            return run_neg
        return _raising(f"unsupported unary operator {e.op!r}")

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------

    def _compile_function(self, e: ast.FunctionCall) -> CompiledExpr:
        name = e.name.upper()
        if e.is_aggregate:
            # Aggregates are computed by the Aggregate operator and stored
            # in the group row under the expression's SQL text; compile to
            # a slot read with the same caching as a column reference.
            key = str(e)
            cached_sig: Optional[Tuple[str, ...]] = None
            cached_slot: Optional[str] = None

            def run_aggregate_ref(row: Row) -> Any:
                nonlocal cached_sig, cached_slot
                values = row.raw
                if key in values:
                    return values[key]
                sig = tuple(values)
                if sig == cached_sig:
                    return values[cached_slot]
                resolved = row.resolve_key(key)
                if resolved is None:
                    raise EvaluationError(
                        f"aggregate {key} used outside of an aggregation context"
                    )
                cached_sig, cached_slot = sig, resolved
                return values[resolved]

            return run_aggregate_ref

        arg_fns = [self.compile(a) for a in e.args]
        if name in ONE_ARGUMENT and len(arg_fns) != 1:
            return _raising(one_argument_error(name, len(arg_fns)))
        if name == "LOWER":
            fn = arg_fns[0]
            return lambda row: None if (v := fn(row)) is None else str(v).lower()
        if name == "UPPER":
            fn = arg_fns[0]
            return lambda row: None if (v := fn(row)) is None else str(v).upper()
        if name == "LENGTH":
            fn = arg_fns[0]
            return lambda row: None if (v := fn(row)) is None else len(str(v))
        if name == "ABS":
            fn = arg_fns[0]
            return lambda row: None if (v := fn(row)) is None else abs(v)
        if name == "COALESCE":

            def run_coalesce(row: Row) -> Any:
                for fn in arg_fns:
                    value = fn(row)
                    if value is not None:
                        return value
                return None

            return run_coalesce
        return _raising(f"unknown function {e.name!r}")

    # ------------------------------------------------------------------
    # Predicates over values
    # ------------------------------------------------------------------

    def _compile_is_null(self, e: ast.IsNull) -> CompiledExpr:
        fn = self.compile(e.operand)
        if e.negated:
            return lambda row: fn(row) is not None
        return lambda row: fn(row) is None

    def _compile_between(self, e: ast.Between) -> CompiledExpr:
        value_fn = self.compile(e.operand)
        low_fn = self.compile(e.low)
        high_fn = self.compile(e.high)
        negated = e.negated

        def run(row: Row) -> Any:
            value = value_fn(row)
            low = low_fn(row)
            high = high_fn(row)
            if value is None or low is None or high is None:
                return None
            result = low <= value <= high
            return not result if negated else result

        return run

    def _compile_in_list(self, e: ast.InList) -> CompiledExpr:
        value_fn = self.compile(e.operand)
        item_fns = [self.compile(v) for v in e.values]
        negated = e.negated

        # All-literal lists (the common case) become a frozen set probe.
        if all(isinstance(v, ast.Literal) and self._is_constant(v) for v in e.values):
            literals = [v.value for v in e.values]
            has_null = any(v is None for v in literals)
            try:
                members = frozenset(v for v in literals if v is not None)
            except TypeError:  # pragma: no cover - unhashable literal
                members = None
            if members is not None:

                def run_literal(row: Row) -> Any:
                    value = value_fn(row)
                    if value is None:
                        return None
                    found = value in members
                    if not found and has_null:
                        return None
                    return not found if negated else found

                return run_literal

        def run(row: Row) -> Any:
            value = value_fn(row)
            if value is None:
                return None
            values = [fn(row) for fn in item_fns]
            found = value in [v for v in values if v is not None]
            if not found and any(v is None for v in values):
                return None
            return not found if negated else found

        return run

    def _compile_case(self, e: ast.CaseExpression) -> CompiledExpr:
        whens = [
            (self.compile_predicate(condition), self.compile(value))
            for condition, value in e.whens
        ]
        else_fn = self.compile(e.else_value) if e.else_value is not None else None

        def run(row: Row) -> Any:
            for condition_fn, value_fn in whens:
                if condition_fn(row):
                    return value_fn(row)
            if else_fn is not None:
                return else_fn(row)
            return None

        return run

    # ------------------------------------------------------------------
    # Subqueries
    # ------------------------------------------------------------------

    def _runner(self) -> SubqueryRunner:
        runner = self._run_subquery
        if runner is None:
            # Defer the failure to evaluation time, like the interpreter: a
            # subquery in a branch that is never taken must never raise.
            def runner(select: ast.SelectStatement, row: Optional[Row]):
                raise EvaluationError(
                    "expression contains a subquery but no subquery runner is configured"
                )

        return runner

    def _compile_subquery_values(
        self, select: ast.SelectStatement
    ) -> Callable[[Row], List[Any]]:
        runner = self._runner()

        def run(row: Row) -> List[Any]:
            values: List[Any] = []
            for sub_row in runner(select, row):
                raw = sub_row.raw
                if not raw:
                    continue
                values.append(raw[next(iter(raw))])
            return values

        return run

    def _compile_in_subquery(self, e: ast.InSubquery) -> CompiledExpr:
        value_fn = self.compile(e.operand)
        values_fn = self._compile_subquery_values(e.subquery)
        negated = e.negated

        def run(row: Row) -> Any:
            value = value_fn(row)
            values = values_fn(row)
            if value is None:
                # IN is `= ANY`, and `= ANY` over an empty set is false
                # whatever the operand; over a non-empty one NULL is unknown.
                if not values:
                    return negated
                return None
            found = value in [v for v in values if v is not None]
            if not found and any(v is None for v in values):
                result: Any = None
            else:
                result = found
            if negated:
                if result is None:
                    return None
                return not result
            return result

        return run

    def _compile_exists(self, e: ast.Exists) -> CompiledExpr:
        runner = self._runner()
        select = e.subquery
        negated = e.negated
        exists = getattr(runner, "exists", None)
        if exists is not None:

            def run_exists(row: Row) -> Any:
                found = exists(select, row)
                return not found if negated else found

            return run_exists

        def run(row: Row) -> Any:
            found = False
            for _ in runner(select, row):
                found = True
                break
            return not found if negated else found

        return run

    def _compile_quantified(self, e: ast.QuantifiedComparison) -> CompiledExpr:
        value_fn = self.compile(e.operand)
        values_fn = self._compile_subquery_values(e.subquery)
        op = e.op
        is_all = e.quantifier.upper() == "ALL"

        def run(row: Row) -> Any:
            value = value_fn(row)
            values = values_fn(row)
            if is_all:
                if not values:
                    return True
                results = [compare_values(op, value, v) for v in values]
                if any(r is False for r in results):
                    return False
                if any(r is None for r in results):
                    return None
                return True
            if not values:
                return False
            results = [compare_values(op, value, v) for v in values]
            if any(r is True for r in results):
                return True
            if any(r is None for r in results):
                return None
            return False

        return run

    def _compile_scalar_subquery(self, e: ast.ScalarSubquery) -> CompiledExpr:
        values_fn = self._compile_subquery_values(e.subquery)

        def run(row: Row) -> Any:
            values = values_fn(row)
            if not values:
                return None
            if len(values) > 1:
                raise EvaluationError("scalar subquery returned more than one row")
            return values[0]

        return run


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _raising(message: str) -> CompiledExpr:
    """A closure that raises on evaluation.

    Unknown constructs fail at *evaluation* time, matching the interpreted
    evaluator (a CASE branch that is never taken never raises).
    """

    def run(row: Row) -> Any:
        raise EvaluationError(message)

    return run
