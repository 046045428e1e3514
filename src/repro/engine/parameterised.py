"""Shape plans: shape analysis, guard keys and parameter slots.

Two queries that differ only in their literal values ("Brad Pitt" vs
"Mark Hamill", 2004 vs 1995) need the same parse, plan and compile.  The
translation layer already shares work per token *shape*
(:mod:`repro.query_nl.plans`); this module gives execution the same
sharing, and the executor runs every compiled SELECT text through it.

How it works
------------

**Shape key.**  :func:`repro.sql.shape.sql_shape` (the implementation
shared with the translator) splits a SQL text into a literal-stripped
token shape plus the literal values in text order.  The first text of a
shape to be admitted (its second sighting; the executor runs the first
without caching anything) becomes the *canonical* statement: it is
parsed and planned normally, and its plan is cached under the shape.

**Parameter slots.**  :func:`source_literals` walks the canonical AST in
source order and pairs each :class:`~repro.sql.ast.Literal` node with its
position in the lexer's literal vector, verified value-by-value.  The
executor's expression compilers then compile those literal nodes into
closures that read the *bound-parameter vector* instead of a baked
constant, so one closure tree serves every literal variant; index probes
likewise resolve their probe key from the vector at run time.

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
output and arithmetic can differ).

**Zero free parameters.**  A statement whose literal walk cannot be
aligned with the lexer's vector (a subquery carrying its own LIMIT, say)
gets :func:`pin_all`: every literal is pinned, so its plan is keyed by
the full literal vector and its type tags and serves exactly one text.
``Executor(parameterised=False)`` pins every literal of every shape the
same way.  The equivalence suite asserts shape plans ≡ pinned plans ≡
the interpreted executor on every corpus query under randomised literal
rotation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.plan import LogicalPlan
from repro.sql import ast

__all__ = [
    "ParameterisedPlan",
    "ShapeInfo",
    "analyze_statement",
    "guard_key",
    "ordinal_map",
    "pin_all",
    "source_literals",
]


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
    nodes themselves are kept alive by ``statement``).  ``run`` is the
    plan's root runner and its rows' layout, which the executor builds at
    the entry's first run, while ``ordinals`` is installed in its
    expression compiler.  The layout carries the result header, safe to
    share because literals that could surface in it are pinned by the
    guard.
    """

    __slots__ = ("statement", "plan", "ordinals", "run")

    def __init__(
        self,
        statement: ast.SelectStatement,
        plan: LogicalPlan,
        ordinals: Dict[int, int],
    ) -> None:
        self.statement = statement
        self.plan = plan
        self.ordinals = ordinals
        self.run: Optional[Tuple[Callable[[None], Iterator[Any]], Tuple[str, ...]]] = None


def analyze_statement(
    statement: ast.Statement, literals: Sequence[Any]
) -> Optional[ShapeInfo]:
    """Shape analysis for a canonical statement, or ``None`` to pin every literal.

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
    # count check below).
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
    the caller must pin every literal (:func:`pin_all`).  A shape whose
    literals are all pinned has no slots to align.
    """
    if len(literals) != info.literal_count:
        return None
    if len(info.pinned) == len(literals):
        return {}
    nodes = source_literals(statement)
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


def pin_all(literals: Sequence[Any]) -> ShapeInfo:
    """A shape with zero free parameters: every literal joins the guard."""
    return ShapeInfo(tuple(range(len(literals))), len(literals))


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
