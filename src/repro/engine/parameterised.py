"""Parameterised execution plans: shape analysis and the parameter compiler.

The executor plans and compiles once per SQL *text*; two queries that
differ only in their literal values ("Brad Pitt" vs "Mark Hamill", 2004
vs 1995) repeat the whole parse → plan → compile pipeline.  The
translation layer already shares work per token *shape*
(:mod:`repro.query_nl.plans`); this module brings the same sharing to
execution, closing the last uncompiled axis — literal variance.

How it works
------------

**Shape key.**  :func:`repro.sql.shape.sql_shape` (the implementation
shared with the translator) splits a SQL text into a literal-stripped
token shape plus the literal values in text order.  The first text of a
shape to be admitted (its second sighting; the executor runs the first
uncached) becomes the *canonical* statement: it is parsed and planned
normally, and its plan is cached under the shape.

**Parameter slots.**  :func:`source_literals` walks the canonical AST in
source order and pairs each :class:`~repro.sql.ast.Literal` node with its
position in the lexer's literal vector (verified value-by-value —
any disagreement marks the shape unparameterisable and execution falls
back to the per-text path).  :class:`ParamExpressionCompiler` then
compiles those literal nodes into closures that read the executor's
*bound-parameter vector* instead of a baked constant, so one closure tree
serves every literal variant; index probes likewise resolve their probe
key from the vector at run time.

**Guards.**  Some literal positions feed *compile-time* decisions whose
output would otherwise bake one query's values into another's answer:

* literals inside unaliased select items surface in output column names
  (``SELECT price + 10 FROM ...`` names its column ``(price + 10)``),
* LIMIT/OFFSET counts are folded into the plan as plain integers (they
  are not expression nodes at all).

Those positions are *pinned*: their values join the cache key (the guard
vector) exactly like the phrase plans' guards, so two queries share a
plan only when they agree on every pinned value.  The guard also carries
a type tag per literal (``i``/``f``/``s``) so ``price = 10`` and
``price = 10.5`` — the same shape — keep distinct plans (their rendered
output and arithmetic can differ).  Everything the guards cannot express
(DML, subqueries carrying their own LIMIT, texts the masker cannot
reproduce) falls back to the per-text path, which remains the oracle:
the equivalence suite asserts parameterised ≡ per-text ≡ interpreted on
every corpus query under randomised literal rotation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.compile import CompiledExpr, ExpressionCompiler
from repro.engine.plan import LogicalPlan
from repro.engine.vector import Vec, VectorExpressionCompiler
from repro.sql import ast

__all__ = [
    "UNPARAMETERISABLE",
    "ParamExpressionCompiler",
    "ParamVectorCompiler",
    "ParameterisedPlan",
    "ShapeInfo",
    "analyze_statement",
    "guard_key",
    "ordinal_map",
    "source_literals",
]

#: Stored in the shape-info cache for shapes the analysis refused: the
#: executor skips straight to the per-text path for them.
UNPARAMETERISABLE = "unparameterisable"


def source_literals(statement: ast.Statement) -> List[ast.Literal]:
    """The statement's literal nodes in source order.

    ``NULL``/``TRUE``/``FALSE`` come from keywords, not literal tokens,
    so they are part of the shape itself and excluded here.  The AST
    stores every child sequence in source order (clause order is fixed by
    the grammar, operator re-association preserves operand order), so a
    pre-order walk yields literals exactly as the lexer extracted them;
    :func:`analyze_statement` verifies that value-by-value before any
    plan is shared.
    """
    return [
        node
        for node in statement.walk()
        if isinstance(node, ast.Literal)
        and node.value is not None
        and not isinstance(node.value, bool)
    ]


def _same_literal(value: Any, literal: Any) -> bool:
    """Exact agreement between an AST literal value and a lexer literal."""
    return type(value) is type(literal) and value == literal


class ShapeInfo:
    """Per-shape analysis shared by every guard class of the shape.

    ``pinned`` holds the literal positions whose values join the guard
    vector; ``literal_count`` is the length of the shape's literal vector
    (used to reject a masked text whose literal extraction disagrees).
    """

    __slots__ = ("pinned", "literal_count")

    def __init__(self, pinned: Tuple[int, ...], literal_count: int) -> None:
        self.pinned = pinned
        self.literal_count = literal_count


class ParameterisedPlan:
    """One compiled plan entry: the canonical statement and its slot map.

    ``ordinals`` maps ``id(literal node)`` → position in the literal
    vector for every *parameter* literal of the canonical statement (the
    nodes themselves are kept alive by ``statement``).  ``columns`` is
    the result header — safe to share because literals that could surface
    in it are pinned by the guard.
    """

    __slots__ = ("statement", "plan", "columns", "ordinals")

    def __init__(
        self,
        statement: ast.SelectStatement,
        plan: LogicalPlan,
        columns: Tuple[str, ...],
        ordinals: Dict[int, int],
    ) -> None:
        self.statement = statement
        self.plan = plan
        self.columns = columns
        self.ordinals = ordinals


def analyze_statement(
    statement: ast.Statement, literals: Sequence[Any]
) -> Optional[ShapeInfo]:
    """Shape analysis for a canonical statement, or ``None`` to fall back.

    Verifies that the source-order literal walk reproduces the lexer's
    literal vector (any trailing positions must be exactly the statement's
    LIMIT/OFFSET counts, in that order) and computes the pinned positions:
    trailing LIMIT/OFFSET holes plus every literal under an unaliased
    select item (their values surface in output column names).
    """
    if not isinstance(statement, ast.SelectStatement):
        return None
    nodes = source_literals(statement)
    if len(nodes) > len(literals):
        return None
    for node, literal in zip(nodes, literals):
        if not _same_literal(node.value, literal):
            return None
    # Literal tokens that never became expression nodes: only the
    # statement's own LIMIT/OFFSET integers may account for them (a
    # subquery carrying LIMIT leaves a mid-vector hole, which fails the
    # count check below and falls back).
    tail = []
    if statement.limit is not None:
        tail.append(statement.limit)
    if statement.offset is not None:
        tail.append(statement.offset)
    holes = len(literals) - len(nodes)
    if holes != len(tail):
        return None
    for value, literal in zip(tail, literals[len(nodes) :]):
        if not _same_literal(value, literal):
            return None

    pinned_ids = set()
    for item in statement.select_items:
        if not item.alias:
            for node in item.expression.walk():
                if isinstance(node, ast.Literal):
                    pinned_ids.add(id(node))
    pinned = [
        position for position, node in enumerate(nodes) if id(node) in pinned_ids
    ]
    pinned.extend(range(len(nodes), len(literals)))
    return ShapeInfo(tuple(pinned), len(literals))


def ordinal_map(
    statement: ast.SelectStatement, literals: Sequence[Any], info: ShapeInfo
) -> Optional[Dict[int, int]]:
    """``id(node) → position`` for the parameter literals of ``statement``.

    Re-runs the source-order walk on a fresh canonical statement (a new
    guard class of an already-analyzed shape) and re-verifies alignment;
    ``None`` means the statement disagrees with the shape analysis and
    the caller must fall back.
    """
    nodes = source_literals(statement)
    if len(literals) != info.literal_count:
        return None
    if len(nodes) + sum(1 for p in info.pinned if p >= len(nodes)) != len(literals):
        return None
    for node, literal in zip(nodes, literals):
        if not _same_literal(node.value, literal):
            return None
    pinned = set(info.pinned)
    return {
        id(node): position
        for position, node in enumerate(nodes)
        if position not in pinned
    }


def guard_key(literals: Sequence[Any], info: ShapeInfo):
    """The guard vector: type tags plus the values at pinned positions."""
    tags = []
    for value in literals:
        if isinstance(value, float):
            tags.append("f")
        elif isinstance(value, int):
            tags.append("i")
        else:
            tags.append("s")
    return tuple(tags), tuple(literals[position] for position in info.pinned)


#: Bound on the parameter compiler's identity memo before it is dropped
#: wholesale (closures are cheap to rebuild; plan-node op caches keep the
#: hot ones alive regardless).
_ID_MEMO_LIMIT = 20_000


class ParamExpressionCompiler(ExpressionCompiler):
    """An expression compiler whose literal slots read a parameter vector.

    Differences from the base compiler:

    * memoization is by node *identity*, not value equality — two equal
      ``Literal(5)`` nodes at different positions must compile to
      closures reading different slots;
    * a literal registered in the active ordinal map compiles to a read
      of the executor's bound-parameter box (``box[0][position]``), and
    * :meth:`_is_constant` keeps those literals out of the base class's
      value-specialised fast paths (baked LIKE regexes, frozen IN sets) —
      their generic closures go through the parameter reads instead.

    The active ordinal map is installed by the executor before every
    parameterised execution; closures are built lazily during the first
    run of each plan operator, so every compile happens under the map of
    the statement that owns the node.
    """

    def __init__(
        self,
        subquery_runner=None,
        params_box: Optional[List[Tuple[Any, ...]]] = None,
    ) -> None:
        super().__init__(subquery_runner=subquery_runner)
        self._params_box = params_box if params_box is not None else [()]
        self._ordinals: Dict[int, int] = {}
        self._id_memo: Dict[int, Tuple[ast.Expression, CompiledExpr]] = {}

    def set_ordinals(self, ordinals: Dict[int, int]) -> None:
        """Install the ordinal map of the statement about to execute."""
        self._ordinals = ordinals

    @property
    def ordinals(self) -> Dict[int, int]:
        """The ordinal map currently installed (read by the vector path)."""
        return self._ordinals

    def compile(self, expression: ast.Expression) -> CompiledExpr:
        key = id(expression)
        entry = self._id_memo.get(key)
        if entry is not None and entry[0] is expression:
            return entry[1]
        fn = self._compile(expression)
        if len(self._id_memo) >= _ID_MEMO_LIMIT:
            self._id_memo.clear()
        self._id_memo[key] = (expression, fn)
        return fn

    def clear(self) -> None:
        """Drop the identity memo (used by ``Executor.invalidate_caches``)."""
        self._id_memo.clear()
        self._ordinals = {}

    def _compile(self, e: ast.Expression) -> CompiledExpr:
        if isinstance(e, ast.Literal):
            position = self._ordinals.get(id(e))
            if position is not None:
                box = self._params_box
                return lambda row, _p=position: box[0][_p]
        return super()._compile(e)

    def _is_constant(self, literal: ast.Literal) -> bool:
        return id(literal) not in self._ordinals


class ParamVectorCompiler(VectorExpressionCompiler):
    """Vector compiler whose parameter-slot literals read the bound vector.

    The mirror of :class:`ParamExpressionCompiler` for the columnar
    path: ordinal-mapped literals become scalar vectors that read
    ``box[0][position]`` at evaluation time, and :meth:`_is_constant`
    keeps them out of the value-specialised fused fast paths (baked
    LIKE regexes, frozen IN sets), whose closures would otherwise bake
    the first variant's values into every later one.

    Built fresh per (plan node, ordinal map): the executor constructs
    one whenever it compiles vector ops while a parameterised execution
    is active, and the captured ordinal map is the owning statement's —
    safe because a plan node belongs to exactly one parameterised entry
    (the same invariant the row path's node-cached closures rely on).
    """

    def __init__(
        self,
        relation: Any,
        binding: str,
        params_box: List[Tuple[Any, ...]],
        ordinals: Dict[int, int],
    ) -> None:
        super().__init__(relation, binding)
        self._params_box = params_box
        self._ordinals = dict(ordinals)

    def _literal(self, e: ast.Literal) -> Vec:
        position = self._ordinals.get(id(e))
        if position is not None:
            box = self._params_box
            return Vec(True, lambda arrays, n, _p=position: box[0][_p])
        return super()._literal(e)

    def _is_constant(self, literal: ast.Literal) -> bool:
        return id(literal) not in self._ordinals
