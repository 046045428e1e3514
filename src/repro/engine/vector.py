"""Column-at-a-time (vectorized) evaluation over columnar arrays.

When a scan's table exposes :meth:`~repro.storage.api.TableStorage.columnar_arrays`
(the columnar engine does), the executor can evaluate a filter or a
projection as whole-column comprehensions instead of calling a closure
per row: no per-row dict probes, no :class:`~repro.storage.row.Row`
allocation for rows the filter rejects.  This module compiles the
*restricted* expression subset that makes that profitable —

* column references bound to the scanned relation,
* literals (including a shape plan's parameter literals, which read the
  bound parameter vector),
* comparisons, ``AND``/``OR``/``NOT``, ``IS [NOT] NULL``,
  ``[NOT] BETWEEN``, ``[NOT] IN (literals)``, ``[NOT] LIKE``,
* arithmetic, ``||``, and the scalar functions
  ``LOWER``/``UPPER``/``LENGTH``/``ABS``

— and raises :class:`VectorUnsupported` for everything else
(subqueries, CASE, aggregates, star, other-table references), at which
point the executor silently stays row-at-a-time.  Falling back is
always safe because vectorization is an *execution strategy*, not a
semantics change: the differential suite holds both paths
byte-identical.

Semantics parity rules (load-bearing — see ``test_storage_engines``):

* SQL three-valued logic is replicated element-wise, including the
  exact ``None``/``False`` short-circuit results of the row compiler's
  ``run_and``/``run_or``.
* A vectorized evaluation may raise where the row path would not
  (vectors evaluate both branches of ``AND``/``OR``; rows short-
  circuit).  The executor therefore treats *any* expected evaluation
  error (``EvaluationError``, ``TypeError``, ``ZeroDivisionError``) as
  "not vectorizable for this data" and re-runs the node row-at-a-time,
  which either succeeds (short-circuit saved it) or raises exactly the
  error the oracle raises.  The reverse cannot happen: a vector
  evaluates a superset of what the rows evaluate.
* Selection order is position order == insertion order, matching the
  row scan.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.evaluator import like_regex
from repro.errors import EvaluationError
from repro.sql import ast
from repro.storage.row import Row

__all__ = [
    "VectorUnsupported",
    "Vec",
    "VectorExpressionCompiler",
]

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

#: ``lit OP col`` rewritten as ``col OP' lit`` for the fused fast path.
_SWAPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class VectorUnsupported(Exception):
    """Raised at compile time: expression outside the vectorized subset."""


class Vec:
    """A compiled vector expression.

    ``scalar`` distinguishes row-independent values (``fn(arrays, n) ->
    value``, e.g. literals and parameter slots) from true columns
    (``fn(arrays, n) -> list of length n``).
    """

    __slots__ = ("scalar", "fn")

    def __init__(self, scalar: bool, fn: Callable[[Arrays, int], Any]) -> None:
        self.scalar = scalar
        self.fn = fn


class VectorExpressionCompiler:
    """Compile AST expressions into column-at-a-time closures.

    One compiler per (relation, binding): column references are
    resolved against the relation's attributes at *compile* time, so
    the generated closures index straight into the arrays dict.
    ``params`` and ``ordinals`` are the row compiler's (see
    :class:`repro.engine.compile.ExpressionCompiler`): a literal in the
    ordinal map becomes a scalar vector reading its position in
    ``params[0]``, and stays out of the fused fast paths (baked LIKE
    regexes, frozen IN sets), whose closures would bake one variant's
    values into every later one.
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

    def _literal(self, e: ast.Literal) -> Vec:
        position = self._ordinals.get(id(e))
        if position is not None:
            params = self._params
            return Vec(True, lambda arrays, n: params[0][position])
        value = e.value
        return Vec(True, lambda arrays, n: value)

    def _is_constant(self, literal: ast.Literal) -> bool:
        return id(literal) not in self._ordinals

    # -- public entry points -------------------------------------------

    def compile_selection(
        self, predicate: Optional[ast.Expression]
    ) -> Callable[[Arrays, int], Selection]:
        """Compile a WHERE predicate to a position-selection function."""
        if predicate is None:
            return lambda arrays, n: range(n)
        fused = self._fuse_conjuncts(predicate)
        if fused is not None:
            return fused
        vec = self.compile(predicate)
        if vec.scalar:
            fn = vec.fn

            def run_scalar(arrays: Arrays, n: int) -> Selection:
                value = fn(arrays, n)
                return range(n) if (bool(value) and value is not None) else ()

            return run_scalar
        fn = vec.fn

        def run(arrays: Arrays, n: int) -> Selection:
            flags = fn(arrays, n)
            # None is falsy: NULL predicate results never select, same
            # as compile_predicate's ``bool(value) and value is not None``.
            return [i for i, flag in enumerate(flags) if flag]

        return run

    def compile_conjunction(
        self, predicates: Sequence[ast.Expression]
    ) -> Callable[[Arrays, int], Selection]:
        """Compile stacked WHERE predicates (innermost first) to one selection.

        The planner splits ``a AND b`` into stacked filter nodes; this
        entry point fuses the whole stack back into a single narrowing
        chain so a range scan plus a LIKE runs as two passes over
        shrinking position lists instead of two full filter operators.
        When some predicate is outside the fused shape, the selections
        are intersected full-width instead — still correct, because the
        executor's error fallback covers the one divergence (an outer
        predicate may be evaluated at positions an inner one rejected).
        """
        if not predicates:
            return lambda arrays, n: range(n)
        if len(predicates) == 1:
            return self.compile_selection(predicates[0])
        tests = []
        for predicate in predicates:
            for conjunct in _flatten_and(predicate):
                test = self._fused_test(conjunct)
                if test is None:
                    tests = None
                    break
                tests.append(test)
            if tests is None:
                break
        if tests is not None:
            return _narrowing_chain(tests)
        fns = [self.compile_selection(p) for p in predicates]

        def run(arrays: Arrays, n: int) -> Selection:
            selected: Optional[List[int]] = None
            for fn in fns:
                chosen = fn(arrays, n)
                if selected is None:
                    selected = chosen if isinstance(chosen, list) else list(chosen)
                else:
                    keep = chosen if isinstance(chosen, range) else set(chosen)
                    selected = [i for i in selected if i in keep]
                if not selected:
                    return []
            return selected if selected is not None else range(n)

        return run

    def compile_projection(
        self, items: Sequence[Tuple[str, ast.Expression]]
    ) -> Callable[[Arrays, int, Selection], List[Row]]:
        """Compile ``(output name, expression)`` select items to a row builder."""
        compiled = [(name, self.compile(expression)) for name, expression in items]

        def build(arrays: Arrays, n: int, selection: Selection) -> List[Row]:
            columns: List[Tuple[str, Any, bool]] = [
                (name, vec.fn(arrays, n), vec.scalar) for name, vec in compiled
            ]
            adopt = Row.adopt
            if len(columns) == 1:
                name, column, scalar = columns[0]
                if scalar:
                    return [adopt({name: column}) for _ in selection]
                return [adopt({name: column[i]}) for i in selection]
            out: List[Row] = []
            for i in selection:
                values: Dict[str, Any] = {}
                for name, column, scalar in columns:
                    values[name] = column if scalar else column[i]
                out.append(adopt(values))
            return out

        return build

    # -- dispatch ------------------------------------------------------

    def compile(self, e: ast.Expression) -> Vec:
        if isinstance(e, ast.Literal):
            return self._literal(e)
        if isinstance(e, ast.ColumnRef):
            return self._compile_column(e)
        if isinstance(e, ast.BinaryOp):
            return self._compile_binary(e)
        if isinstance(e, ast.UnaryOp):
            return self._compile_unary(e)
        if isinstance(e, ast.IsNull):
            return self._compile_is_null(e)
        if isinstance(e, ast.Between):
            return self._compile_between(e)
        if isinstance(e, ast.InList):
            return self._compile_in_list(e)
        if isinstance(e, ast.FunctionCall):
            return self._compile_function(e)
        raise VectorUnsupported(type(e).__name__)

    # -- leaves --------------------------------------------------------

    def _column_name(self, e: ast.ColumnRef) -> str:
        """The canonical attribute name, or VectorUnsupported."""
        if e.table is not None and e.table.lower() != self._binding:
            raise VectorUnsupported(f"column {e.qualified} outside scan binding")
        canonical = self._attrs.get(e.column.lower())
        if canonical is None:
            # Unknown column: the row path owns the error message.
            raise VectorUnsupported(f"unknown column {e.qualified}")
        return canonical

    def _compile_column(self, e: ast.ColumnRef) -> Vec:
        name = self._column_name(e)
        return Vec(False, lambda arrays, n: arrays[name])

    # -- operators -----------------------------------------------------

    def _compile_binary(self, e: ast.BinaryOp) -> Vec:
        op = e.op.upper()
        if op == "AND":
            return self._compile_and(self.compile(e.left), self.compile(e.right))
        if op == "OR":
            return self._compile_or(self.compile(e.left), self.compile(e.right))
        if op in ("LIKE", "NOT LIKE"):
            return self._compile_like(e, negate=op == "NOT LIKE")
        comparison = _COMPARISONS.get(op)
        if comparison is not None:
            return self._compile_compare(e, op, comparison)
        if op in ("+", "-", "*"):
            arith = {"+": operator.add, "-": operator.sub, "*": operator.mul}[op]
            return self._elementwise2(
                self.compile(e.left), self.compile(e.right), arith
            )
        if op == "/":
            return self._elementwise2(
                self.compile(e.left), self.compile(e.right), _div
            )
        if op == "%":
            return self._elementwise2(
                self.compile(e.left), self.compile(e.right), _mod
            )
        if op == "||":
            return self._elementwise2(
                self.compile(e.left), self.compile(e.right), _concat
            )
        raise VectorUnsupported(f"operator {e.op!r}")

    def _compile_and(self, lv: Vec, rv: Vec) -> Vec:
        if lv.scalar and rv.scalar:
            lf, rf = lv.fn, rv.fn

            def run_ss(arrays: Arrays, n: int) -> Any:
                return _and_values(lf(arrays, n), rf(arrays, n))

            return Vec(True, run_ss)
        if lv.scalar or rv.scalar:
            scalar, column = (lv, rv) if lv.scalar else (rv, lv)
            sf, cf = scalar.fn, column.fn

            def run_sc(arrays: Arrays, n: int) -> List[Any]:
                fixed = sf(arrays, n)
                if fixed is False:
                    return [False] * n
                values = cf(arrays, n)
                return [_and_values(fixed, v) for v in values]

            return Vec(False, run_sc)
        lf, rf = lv.fn, rv.fn

        def run_cc(arrays: Arrays, n: int) -> List[Any]:
            return [
                _and_values(a, b) for a, b in zip(lf(arrays, n), rf(arrays, n))
            ]

        return Vec(False, run_cc)

    def _compile_or(self, lv: Vec, rv: Vec) -> Vec:
        if lv.scalar and rv.scalar:
            lf, rf = lv.fn, rv.fn

            def run_ss(arrays: Arrays, n: int) -> Any:
                return _or_values(lf(arrays, n), rf(arrays, n))

            return Vec(True, run_ss)
        if lv.scalar or rv.scalar:
            scalar, column = (lv, rv) if lv.scalar else (rv, lv)
            sf, cf = scalar.fn, column.fn

            def run_sc(arrays: Arrays, n: int) -> List[Any]:
                fixed = sf(arrays, n)
                if fixed is not None and fixed:
                    return [True] * n
                values = cf(arrays, n)
                return [_or_values(fixed, v) for v in values]

            return Vec(False, run_sc)
        lf, rf = lv.fn, rv.fn

        def run_cc(arrays: Arrays, n: int) -> List[Any]:
            return [
                _or_values(a, b) for a, b in zip(lf(arrays, n), rf(arrays, n))
            ]

        return Vec(False, run_cc)

    def _compile_compare(self, e: ast.BinaryOp, op: str, comparison) -> Vec:
        lv, rv = self.compile(e.left), self.compile(e.right)
        if lv.scalar and rv.scalar:
            lf, rf = lv.fn, rv.fn

            def run_ss(arrays: Arrays, n: int) -> Any:
                left, right = lf(arrays, n), rf(arrays, n)
                if left is None or right is None:
                    return None
                return comparison(left, right)

            return Vec(True, run_ss)
        if rv.scalar:
            lf, rf = lv.fn, rv.fn

            def run_cs(arrays: Arrays, n: int) -> List[Any]:
                right = rf(arrays, n)
                if right is None:
                    return [None] * n
                return [
                    None if v is None else comparison(v, right)
                    for v in lf(arrays, n)
                ]

            return Vec(False, run_cs)
        if lv.scalar:
            lf, rf = lv.fn, rv.fn

            def run_sc(arrays: Arrays, n: int) -> List[Any]:
                left = lf(arrays, n)
                if left is None:
                    return [None] * n
                return [
                    None if v is None else comparison(left, v)
                    for v in rf(arrays, n)
                ]

            return Vec(False, run_sc)
        lf, rf = lv.fn, rv.fn

        def run_cc(arrays: Arrays, n: int) -> List[Any]:
            return [
                None if a is None or b is None else comparison(a, b)
                for a, b in zip(lf(arrays, n), rf(arrays, n))
            ]

        return Vec(False, run_cc)

    def _compile_like(self, e: ast.BinaryOp, negate: bool) -> Vec:
        value_vec = self.compile(e.left)
        pattern_vec = self.compile(e.right)
        if not pattern_vec.scalar:
            raise VectorUnsupported("column LIKE pattern")
        if value_vec.scalar:
            vf, pf = value_vec.fn, pattern_vec.fn

            def run_ss(arrays: Arrays, n: int) -> Any:
                value, pattern = vf(arrays, n), pf(arrays, n)
                if value is None or pattern is None:
                    return None
                matched = like_regex(str(pattern)).match(str(value)) is not None
                return not matched if negate else matched

            return Vec(True, run_ss)
        vf, pf = value_vec.fn, pattern_vec.fn

        def run(arrays: Arrays, n: int) -> List[Any]:
            pattern = pf(arrays, n)
            if pattern is None:
                return [None] * n
            match = like_regex(str(pattern)).match
            if negate:
                return [
                    None if v is None else match(str(v)) is None
                    for v in vf(arrays, n)
                ]
            return [
                None if v is None else match(str(v)) is not None
                for v in vf(arrays, n)
            ]

        return Vec(False, run)

    def _compile_unary(self, e: ast.UnaryOp) -> Vec:
        vec = self.compile(e.operand)
        if e.op.upper() == "NOT":
            if vec.scalar:
                fn = vec.fn

                def run_s(arrays: Arrays, n: int) -> Any:
                    value = fn(arrays, n)
                    return None if value is None else not bool(value)

                return Vec(True, run_s)
            fn = vec.fn
            return Vec(
                False,
                lambda arrays, n: [
                    None if v is None else not bool(v) for v in fn(arrays, n)
                ],
            )
        if e.op == "-":
            if vec.scalar:
                fn = vec.fn

                def run_neg_s(arrays: Arrays, n: int) -> Any:
                    value = fn(arrays, n)
                    return None if value is None else -value

                return Vec(True, run_neg_s)
            fn = vec.fn
            return Vec(
                False,
                lambda arrays, n: [
                    None if v is None else -v for v in fn(arrays, n)
                ],
            )
        raise VectorUnsupported(f"unary operator {e.op!r}")

    def _compile_is_null(self, e: ast.IsNull) -> Vec:
        vec = self.compile(e.operand)
        negated = e.negated
        if vec.scalar:
            fn = vec.fn
            if negated:
                return Vec(True, lambda arrays, n: fn(arrays, n) is not None)
            return Vec(True, lambda arrays, n: fn(arrays, n) is None)
        fn = vec.fn
        if negated:
            return Vec(
                False, lambda arrays, n: [v is not None for v in fn(arrays, n)]
            )
        return Vec(False, lambda arrays, n: [v is None for v in fn(arrays, n)])

    def _compile_between(self, e: ast.Between) -> Vec:
        value_vec = self.compile(e.operand)
        low_vec = self.compile(e.low)
        high_vec = self.compile(e.high)
        if not (low_vec.scalar and high_vec.scalar):
            raise VectorUnsupported("BETWEEN with column bounds")
        negated = e.negated
        if value_vec.scalar:
            vf, lf, hf = value_vec.fn, low_vec.fn, high_vec.fn

            def run_s(arrays: Arrays, n: int) -> Any:
                value, low, high = vf(arrays, n), lf(arrays, n), hf(arrays, n)
                if value is None or low is None or high is None:
                    return None
                result = low <= value <= high
                return not result if negated else result

            return Vec(True, run_s)
        vf, lf, hf = value_vec.fn, low_vec.fn, high_vec.fn

        def run(arrays: Arrays, n: int) -> List[Any]:
            low, high = lf(arrays, n), hf(arrays, n)
            if low is None or high is None:
                return [None] * n
            if negated:
                return [
                    None if v is None else not (low <= v <= high)
                    for v in vf(arrays, n)
                ]
            return [
                None if v is None else (low <= v <= high) for v in vf(arrays, n)
            ]

        return Vec(False, run)

    def _compile_in_list(self, e: ast.InList) -> Vec:
        value_vec = self.compile(e.operand)
        item_vecs = [self.compile(v) for v in e.values]
        if any(not item.scalar for item in item_vecs):
            raise VectorUnsupported("IN list with column items")
        negated = e.negated
        # Mirror the row compiler's two membership strategies: frozen-set
        # probes for all-constant lists (unhashable probes raise, caught
        # by the executor's fallback), list membership otherwise.
        use_set = all(
            isinstance(v, ast.Literal) and self._is_constant(v) for v in e.values
        )
        if value_vec.scalar:
            vf = value_vec.fn
            fns = [item.fn for item in item_vecs]

            def run_s(arrays: Arrays, n: int) -> Any:
                value = vf(arrays, n)
                if value is None:
                    return None
                items = [fn(arrays, n) for fn in fns]
                found = value in [v for v in items if v is not None]
                if not found and any(v is None for v in items):
                    return None
                return not found if negated else found

            return Vec(True, run_s)
        vf = value_vec.fn
        fns = [item.fn for item in item_vecs]

        def run(arrays: Arrays, n: int) -> List[Any]:
            items = [fn(arrays, n) for fn in fns]
            has_null = any(v is None for v in items)
            non_null = [v for v in items if v is not None]
            members: Any = non_null
            if use_set:
                try:
                    members = frozenset(non_null)
                except TypeError:
                    members = non_null
            out: List[Any] = []
            for v in vf(arrays, n):
                if v is None:
                    out.append(None)
                    continue
                found = v in members
                if not found and has_null:
                    out.append(None)
                    continue
                out.append(not found if negated else found)
            return out

        return Vec(False, run)

    def _compile_function(self, e: ast.FunctionCall) -> Vec:
        if e.is_aggregate:
            raise VectorUnsupported("aggregate reference")
        name = e.name.upper()
        scalar_fns = {
            "LOWER": lambda v: str(v).lower(),
            "UPPER": lambda v: str(v).upper(),
            "LENGTH": lambda v: len(str(v)),
            "ABS": abs,
        }
        fn = scalar_fns.get(name)
        if fn is None or len(e.args) != 1:
            raise VectorUnsupported(f"function {e.name}")
        return self._elementwise1(self.compile(e.args[0]), fn)

    # -- elementwise helpers -------------------------------------------

    def _elementwise1(self, vec: Vec, fn: Callable[[Any], Any]) -> Vec:
        if vec.scalar:
            vf = vec.fn

            def run_s(arrays: Arrays, n: int) -> Any:
                value = vf(arrays, n)
                return None if value is None else fn(value)

            return Vec(True, run_s)
        vf = vec.fn
        return Vec(
            False,
            lambda arrays, n: [None if v is None else fn(v) for v in vf(arrays, n)],
        )

    def _elementwise2(self, lv: Vec, rv: Vec, fn: Callable[[Any, Any], Any]) -> Vec:
        if lv.scalar and rv.scalar:
            lf, rf = lv.fn, rv.fn

            def run_ss(arrays: Arrays, n: int) -> Any:
                a, b = lf(arrays, n), rf(arrays, n)
                if a is None or b is None:
                    return None
                return fn(a, b)

            return Vec(True, run_ss)
        if rv.scalar:
            lf, rf = lv.fn, rv.fn

            def run_cs(arrays: Arrays, n: int) -> List[Any]:
                b = rf(arrays, n)
                if b is None:
                    return [None] * n
                return [None if a is None else fn(a, b) for a in lf(arrays, n)]

            return Vec(False, run_cs)
        if lv.scalar:
            lf, rf = lv.fn, rv.fn

            def run_sc(arrays: Arrays, n: int) -> List[Any]:
                a = lf(arrays, n)
                if a is None:
                    return [None] * n
                return [None if b is None else fn(a, b) for b in rf(arrays, n)]

            return Vec(False, run_sc)
        lf, rf = lv.fn, rv.fn

        def run_cc(arrays: Arrays, n: int) -> List[Any]:
            return [
                None if a is None or b is None else fn(a, b)
                for a, b in zip(lf(arrays, n), rf(arrays, n))
            ]

        return Vec(False, run_cc)

    # -- fused conjunction fast path -----------------------------------

    def _fuse_conjuncts(
        self, predicate: ast.Expression
    ) -> Optional[Callable[[Arrays, int], Selection]]:
        """Fuse ``col CMP const AND ...`` chains into narrowing passes.

        The generic path builds one boolean list per comparison plus one
        per AND; for the dominant shape — a conjunction of single-column
        comparisons against constants (range scans, LIKE prefixes,
        BETWEEN) — a chain of selection-narrowing comprehensions touches
        each candidate position once per conjunct with zero intermediate
        boolean lists.  Returns None when any conjunct is outside that
        shape (the generic or row path takes over).
        """
        tests = []
        for conjunct in _flatten_and(predicate):
            test = self._fused_test(conjunct)
            if test is None:
                return None
            tests.append(test)
        return _narrowing_chain(tests)

    def _fused_test(self, e: ast.Expression):
        """A narrowing closure for one simple conjunct, or None."""
        if isinstance(e, ast.BinaryOp):
            op = e.op.upper()
            if op in _COMPARISONS:
                column, const = None, None
                if isinstance(e.left, ast.ColumnRef) and self._scalar_vec(e.right):
                    column, const, cmp = e.left, e.right, _COMPARISONS[op]
                elif isinstance(e.right, ast.ColumnRef) and self._scalar_vec(e.left):
                    column, const, cmp = e.right, e.left, _COMPARISONS[_SWAPPED[op]]
                else:
                    return None
                name = self._column_name(column)
                thunk = self.compile(const).fn
                return _compare_test(name, cmp, thunk)
            if op in ("LIKE", "NOT LIKE"):
                if not (
                    isinstance(e.left, ast.ColumnRef) and self._scalar_vec(e.right)
                ):
                    return None
                name = self._column_name(e.left)
                thunk = self.compile(e.right).fn
                return _like_test(name, thunk, negate=op == "NOT LIKE")
            return None
        if isinstance(e, ast.Between) and not e.negated:
            if not (
                isinstance(e.operand, ast.ColumnRef)
                and self._scalar_vec(e.low)
                and self._scalar_vec(e.high)
            ):
                return None
            name = self._column_name(e.operand)
            low_thunk = self.compile(e.low).fn
            high_thunk = self.compile(e.high).fn
            return _between_test(name, low_thunk, high_thunk)
        if isinstance(e, ast.IsNull):
            if not isinstance(e.operand, ast.ColumnRef):
                return None
            name = self._column_name(e.operand)
            return _is_null_test(name, negated=e.negated)
        return None

    def _scalar_vec(self, e: ast.Expression) -> bool:
        """Whether ``e`` compiles to a row-independent scalar (cheaply)."""
        return isinstance(e, ast.Literal)


# ----------------------------------------------------------------------
# Fused-test closures
# ----------------------------------------------------------------------


def _flatten_and(predicate: ast.Expression) -> List[ast.Expression]:
    """``a AND b AND c`` -> ``[a, b, c]`` in source order."""
    conjuncts: List[ast.Expression] = []
    stack = [predicate]
    while stack:
        e = stack.pop()
        if isinstance(e, ast.BinaryOp) and e.op.upper() == "AND":
            stack.append(e.right)
            stack.append(e.left)
        else:
            conjuncts.append(e)
    return conjuncts


def _narrowing_chain(tests) -> Callable[[Arrays, int], Selection]:
    """Chain fused tests, each narrowing the previous selection."""

    def run(arrays: Arrays, n: int) -> Selection:
        selection: Optional[List[int]] = None
        for test in tests:
            selection = test(arrays, n, selection)
            if not selection:
                return []
        return selection if selection is not None else range(n)

    return run


def _compare_test(name: str, cmp, thunk):
    def test(arrays: Arrays, n: int, selection: Optional[List[int]]):
        const = thunk(arrays, n)
        if const is None:
            return []  # NULL comparisons never match
        column = arrays[name]
        if selection is None:
            return [i for i, v in enumerate(column) if v is not None and cmp(v, const)]
        return [i for i in selection if (v := column[i]) is not None and cmp(v, const)]

    return test


def _like_test(name: str, pattern_thunk, negate: bool):
    def test(arrays: Arrays, n: int, selection: Optional[List[int]]):
        pattern = pattern_thunk(arrays, n)
        if pattern is None:
            return []
        match = like_regex(str(pattern)).match
        column = arrays[name]
        if negate:
            if selection is None:
                return [
                    i
                    for i, v in enumerate(column)
                    if v is not None and match(str(v)) is None
                ]
            return [
                i
                for i in selection
                if (v := column[i]) is not None and match(str(v)) is None
            ]
        if selection is None:
            return [
                i
                for i, v in enumerate(column)
                if v is not None and match(str(v)) is not None
            ]
        return [
            i
            for i in selection
            if (v := column[i]) is not None and match(str(v)) is not None
        ]

    return test


def _between_test(name: str, low_thunk, high_thunk):
    def test(arrays: Arrays, n: int, selection: Optional[List[int]]):
        low = low_thunk(arrays, n)
        high = high_thunk(arrays, n)
        if low is None or high is None:
            return []
        column = arrays[name]
        if selection is None:
            return [
                i for i, v in enumerate(column) if v is not None and low <= v <= high
            ]
        return [
            i for i in selection if (v := column[i]) is not None and low <= v <= high
        ]

    return test


def _is_null_test(name: str, negated: bool):
    def test(arrays: Arrays, n: int, selection: Optional[List[int]]):
        column = arrays[name]
        if negated:
            if selection is None:
                return [i for i, v in enumerate(column) if v is not None]
            return [i for i in selection if column[i] is not None]
        if selection is None:
            return [i for i, v in enumerate(column) if v is None]
        return [i for i in selection if column[i] is None]

    return test


# ----------------------------------------------------------------------
# Value helpers replicating the row compiler's exact semantics
# ----------------------------------------------------------------------


def _and_values(left: Any, right: Any) -> Any:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return bool(left) and bool(right)


def _or_values(left: Any, right: Any) -> Any:
    if left is not None and left:
        return True
    if right is not None and right:
        return True
    if left is None or right is None:
        return None
    return bool(left) or bool(right)


def _div(left: Any, right: Any) -> Any:
    if right == 0:
        raise EvaluationError("division by zero")
    result = left / right
    if isinstance(left, int) and isinstance(right, int) and left % right == 0:
        return left // right
    return result


def _mod(left: Any, right: Any) -> Any:
    if right == 0:
        raise EvaluationError("modulo by zero")
    return left % right


def _concat(left: Any, right: Any) -> str:
    return f"{left}{right}"
