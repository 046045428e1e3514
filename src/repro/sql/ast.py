"""Abstract syntax tree for the supported SQL dialect.

Every node is an immutable dataclass.  The tree is deliberately close to
SQL's surface structure (SELECT/FROM/WHERE/GROUP BY/HAVING/ORDER BY)
because the query-graph builder of Section 3.2 mirrors exactly those
compartments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence, Tuple


class Node:
    """Base class for all AST nodes."""

    # Empty slots on the bases keep the (slotted) dataclass nodes free of
    # a per-instance ``__dict__``: AST nodes are created in the parse hot
    # path and read everywhere downstream.
    __slots__ = ()

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (used by generic walkers)."""
        return iter(())

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression(Node):
    """Base class for scalar and boolean expressions."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Literal(Expression):
    """A constant: number, string, boolean or NULL (``value is None``)."""

    value: Any

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


@dataclass(frozen=True, slots=True)
class ColumnRef(Expression):
    """A (possibly qualified) column reference such as ``m.title`` or ``title``."""

    column: str
    table: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column

    def __str__(self) -> str:
        return self.qualified


@dataclass(frozen=True, slots=True)
class Star(Expression):
    """``*`` or ``alias.*`` in a select list or inside ``count(*)``."""

    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass(frozen=True, slots=True)
class BinaryOp(Expression):
    """A binary operation: comparison, arithmetic, AND/OR, LIKE or string concat."""

    op: str
    left: Expression
    right: Expression

    def children(self) -> Iterator[Node]:
        yield self.left
        yield self.right

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, slots=True)
class UnaryOp(Expression):
    """A unary operation: ``NOT expr`` or ``-expr``."""

    op: str
    operand: Expression

    def children(self) -> Iterator[Node]:
        yield self.operand

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass(frozen=True, slots=True)
class FunctionCall(Expression):
    """A function application, including aggregates like ``count(distinct x)``."""

    name: str
    args: Tuple[Expression, ...] = ()
    distinct: bool = False

    AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")

    @property
    def is_aggregate(self) -> bool:
        return self.name.upper() in self.AGGREGATES

    def children(self) -> Iterator[Node]:
        return iter(self.args)

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name.lower()}({inner})"


@dataclass(frozen=True, slots=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def children(self) -> Iterator[Node]:
        yield self.operand

    def __str__(self) -> str:
        tail = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {tail})"


@dataclass(frozen=True, slots=True)
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def children(self) -> Iterator[Node]:
        yield self.operand
        yield self.low
        yield self.high

    def __str__(self) -> str:
        word = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand} {word} {self.low} AND {self.high})"


@dataclass(frozen=True, slots=True)
class InList(Expression):
    """``expr [NOT] IN (value, value, ...)`` with literal values."""

    operand: Expression
    values: Tuple[Expression, ...]
    negated: bool = False

    def children(self) -> Iterator[Node]:
        yield self.operand
        yield from self.values

    def __str__(self) -> str:
        word = "NOT IN" if self.negated else "IN"
        inner = ", ".join(str(v) for v in self.values)
        return f"({self.operand} {word} ({inner}))"


@dataclass(frozen=True, slots=True)
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)`` — the nesting connector of query Q5."""

    operand: Expression
    subquery: "SelectStatement"
    negated: bool = False

    def children(self) -> Iterator[Node]:
        yield self.operand
        yield self.subquery

    def __str__(self) -> str:
        word = "NOT IN" if self.negated else "IN"
        return f"({self.operand} {word} ({self.subquery}))"


@dataclass(frozen=True, slots=True)
class Exists(Expression):
    """``[NOT] EXISTS (SELECT ...)`` — the connector of query Q6."""

    subquery: "SelectStatement"
    negated: bool = False

    def children(self) -> Iterator[Node]:
        yield self.subquery

    def __str__(self) -> str:
        word = "NOT EXISTS" if self.negated else "EXISTS"
        return f"({word} ({self.subquery}))"


@dataclass(frozen=True, slots=True)
class QuantifiedComparison(Expression):
    """``expr op ALL/ANY (SELECT ...)`` — the connector of query Q9."""

    operand: Expression
    op: str
    quantifier: str  # "ALL" or "ANY"
    subquery: "SelectStatement"

    def children(self) -> Iterator[Node]:
        yield self.operand
        yield self.subquery

    def __str__(self) -> str:
        return f"({self.operand} {self.op} {self.quantifier} ({self.subquery}))"


@dataclass(frozen=True, slots=True)
class ScalarSubquery(Expression):
    """A subquery used as a scalar value, e.g. in Q7's HAVING clause."""

    subquery: "SelectStatement"

    def children(self) -> Iterator[Node]:
        yield self.subquery

    def __str__(self) -> str:
        return f"({self.subquery})"


@dataclass(frozen=True, slots=True)
class CaseExpression(Expression):
    """``CASE WHEN cond THEN value ... [ELSE value] END``."""

    whens: Tuple[Tuple[Expression, Expression], ...]
    else_value: Optional[Expression] = None

    def children(self) -> Iterator[Node]:
        for cond, value in self.whens:
            yield cond
            yield value
        if self.else_value is not None:
            yield self.else_value

    def __str__(self) -> str:
        parts = ["CASE"]
        for cond, value in self.whens:
            parts.append(f"WHEN {cond} THEN {value}")
        if self.else_value is not None:
            parts.append(f"ELSE {self.else_value}")
        parts.append("END")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Query structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SelectItem(Node):
    """One entry of the select list: an expression with an optional alias."""

    expression: Expression
    alias: Optional[str] = None

    def children(self) -> Iterator[Node]:
        yield self.expression

    @property
    def output_name(self) -> str:
        """The column name this item produces in the result."""
        if self.alias:
            return self.alias
        if isinstance(self.expression, ColumnRef):
            return self.expression.qualified
        return str(self.expression)

    def __str__(self) -> str:
        if self.alias:
            return f"{self.expression} AS {self.alias}"
        return str(self.expression)


@dataclass(frozen=True, slots=True)
class TableRef(Node):
    """A FROM-clause entry: relation name plus optional alias (tuple variable)."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this table is referred to by in the rest of the query."""
        return self.alias or self.name

    def __str__(self) -> str:
        return f"{self.name} {self.alias}" if self.alias else self.name


@dataclass(frozen=True, slots=True)
class OrderItem(Node):
    """One ORDER BY entry."""

    expression: Expression
    descending: bool = False

    def children(self) -> Iterator[Node]:
        yield self.expression

    def __str__(self) -> str:
        return f"{self.expression} DESC" if self.descending else str(self.expression)


class Statement(Node):
    """Base class for executable statements."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class SelectStatement(Statement):
    """A SELECT query with the full clause structure of Figure 2."""

    select_items: Tuple[SelectItem, ...]
    from_tables: Tuple[TableRef, ...] = ()
    where: Optional[Expression] = None
    group_by: Tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: Tuple[OrderItem, ...] = ()
    distinct: bool = False
    limit: Optional[int] = None
    offset: Optional[int] = None

    def children(self) -> Iterator[Node]:
        yield from self.select_items
        yield from self.from_tables
        if self.where is not None:
            yield self.where
        yield from self.group_by
        if self.having is not None:
            yield self.having
        yield from self.order_by

    # -- convenience views used by the query-graph builder -----------------

    def has_aggregates(self) -> bool:
        """True when the select list or HAVING clause uses an aggregate."""
        scopes: Sequence[Optional[Node]] = (*self.select_items, self.having)
        for scope in scopes:
            if scope is None:
                continue
            for node in _walk_without_subqueries(scope):
                if isinstance(node, FunctionCall) and node.is_aggregate:
                    return True
        return bool(self.group_by)

    def subqueries(self) -> Tuple["SelectStatement", ...]:
        """All immediate subqueries nested anywhere in this statement."""
        found = []
        for node in _walk_without_subqueries(self, include_root_children=True):
            if isinstance(node, (InSubquery, Exists, QuantifiedComparison, ScalarSubquery)):
                found.append(node.subquery)
        return tuple(found)

    def is_nested(self) -> bool:
        return bool(self.subqueries())

    def __str__(self) -> str:
        from repro.sql.printer import to_sql

        return to_sql(self)


def _walk_without_subqueries(
    node: Node, include_root_children: bool = False
) -> Iterator[Node]:
    """Walk ``node`` but do not descend *into* nested SELECT statements.

    The nested statements themselves are yielded (wrapped in their
    connector nodes) so callers can detect nesting without conflating the
    inner query's aggregates/conditions with the outer query's.
    """
    yield node
    for child in node.children():
        if isinstance(child, SelectStatement) and not include_root_children:
            continue
        if isinstance(child, SelectStatement):
            # include_root_children only applies at the first level
            yield child
            continue
        yield from _walk_without_subqueries(child)


@dataclass(frozen=True, slots=True)
class InsertStatement(Statement):
    """``INSERT INTO table (cols) VALUES (...), (...)``."""

    table: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Expression, ...], ...]

    def children(self) -> Iterator[Node]:
        for row in self.rows:
            yield from row


@dataclass(frozen=True, slots=True)
class UpdateStatement(Statement):
    """``UPDATE table SET col = expr, ... [WHERE cond]``."""

    table: str
    assignments: Tuple[Tuple[str, Expression], ...]
    where: Optional[Expression] = None
    alias: Optional[str] = None

    def children(self) -> Iterator[Node]:
        for _, expr in self.assignments:
            yield expr
        if self.where is not None:
            yield self.where


@dataclass(frozen=True, slots=True)
class DeleteStatement(Statement):
    """``DELETE FROM table [WHERE cond]``."""

    table: str
    where: Optional[Expression] = None
    alias: Optional[str] = None

    def children(self) -> Iterator[Node]:
        if self.where is not None:
            yield self.where


@dataclass(frozen=True, slots=True)
class CreateViewStatement(Statement):
    """``CREATE VIEW name AS SELECT ...``."""

    name: str
    query: SelectStatement

    def children(self) -> Iterator[Node]:
        yield self.query


# ---------------------------------------------------------------------------
# Small expression helpers shared by the rewriter and translators
# ---------------------------------------------------------------------------


def conjuncts(expression: Optional[Expression]) -> Tuple[Expression, ...]:
    """Split a WHERE/HAVING expression into its top-level AND-ed conjuncts."""
    if expression is None:
        return ()
    if isinstance(expression, BinaryOp) and expression.op.upper() == "AND":
        return conjuncts(expression.left) + conjuncts(expression.right)
    return (expression,)


def conjoin(expressions: Sequence[Expression]) -> Optional[Expression]:
    """Combine expressions with AND (returns ``None`` for an empty sequence)."""
    result: Optional[Expression] = None
    for expression in expressions:
        result = expression if result is None else BinaryOp("AND", result, expression)
    return result


def column_refs(node: Node) -> Tuple[ColumnRef, ...]:
    """All column references appearing in ``node`` (including subqueries)."""
    return tuple(n for n in node.walk() if isinstance(n, ColumnRef))


def is_join_condition(expression: Expression) -> bool:
    """True for an equality between two column references (a join predicate)."""
    return (
        isinstance(expression, BinaryOp)
        and expression.op == "="
        and isinstance(expression.left, ColumnRef)
        and isinstance(expression.right, ColumnRef)
    )


def is_selection_condition(expression: Expression) -> bool:
    """True for a comparison between a column reference and a literal."""
    if not isinstance(expression, BinaryOp):
        return False
    if expression.op.upper() in ("AND", "OR"):
        return False
    left_col = isinstance(expression.left, ColumnRef)
    right_col = isinstance(expression.right, ColumnRef)
    left_lit = isinstance(expression.left, Literal)
    right_lit = isinstance(expression.right, Literal)
    return (left_col and right_lit) or (left_lit and right_col)
