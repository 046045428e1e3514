"""Logical query plans and the planner that derives them from SELECT ASTs.

The planner performs the classic decomposition the paper's query-graph
model also relies on: the WHERE clause is split into conjuncts, each
conjunct is classified as a *local selection* (references a single tuple
variable), an *equi-join* between two tuple variables, or a *residual*
predicate (anything else, including subquery connectors), and a left-deep
join tree is built greedily so that every join has at least one usable
equi-join condition when one exists.

The planner also picks each join's key and access path from the schema,
after Selinger et al., "Access Path Selection in a Relational Database
Management System" (SIGMOD 1979), without a cost model: the tree starts
at a binding with pushed equality conjuncts, a join's key is its first
equi-condition between declared columns, and a join whose inner input is
a bare base-table scan probes that table's hash index on the key per
outer row (see :class:`Planner`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.catalog.relation import Relation
from repro.catalog.schema import Schema
from repro.errors import PlanningError, UnknownRelationError
from repro.sql import ast


class PlanNode:
    """Base class for logical plan nodes."""

    def children(self) -> Sequence["PlanNode"]:
        return ()

    def describe(self) -> str:
        return type(self).__name__


@dataclass
class ScanNode(PlanNode):
    """Scan a base table, binding its rows to a tuple-variable name.

    When the planner finds equality conjuncts of the form
    ``binding.column = <expression constant w.r.t. the binding>`` it pushes
    them into the scan: ``eq_columns[i] = eq_values[i]`` must hold for
    every produced row, letting the executor probe a hash index instead of
    scanning.  ``pushed_filters`` keeps the original predicates so the
    executor can fall back to filtering (and ``explain`` can print them).
    """

    table_name: str
    binding: str
    eq_columns: Tuple[str, ...] = ()
    eq_values: Tuple[ast.Expression, ...] = ()
    pushed_filters: Tuple[ast.Expression, ...] = ()

    def describe(self) -> str:
        base = (
            f"{self.table_name} AS {self.binding}"
            if self.binding != self.table_name
            else self.table_name
        )
        if self.eq_columns:
            from repro.sql.printer import expression_to_sql

            conds = " AND ".join(
                expression_to_sql(p, top_level=True) for p in self.pushed_filters
            )
            return f"IndexScan({base}: {conds})"
        return f"Scan({base})"


@dataclass
class FilterNode(PlanNode):
    """Filter rows with a predicate."""

    child: PlanNode
    predicate: ast.Expression

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def describe(self) -> str:
        from repro.sql.printer import expression_to_sql

        return f"Filter({expression_to_sql(self.predicate, top_level=True)})"


@dataclass
class JoinNode(PlanNode):
    """Join two inputs.

    ``equi_conditions`` are equalities between two columns;
    ``other_conditions`` are arbitrary predicates evaluated after the match.
    With no conditions at all this is a cross product.  ``key`` is the
    equi-condition the join matches on, with its outer (``left``) and inner
    (``right``) column; the join hashes its inner input on the inner column,
    or, when ``index`` is set, probes the inner table's hash index on it
    once per outer row (the planner sets ``index`` only when ``right`` is a
    base-table :class:`ScanNode`).  A join without a key tests every pair.
    """

    left: PlanNode
    right: PlanNode
    equi_conditions: Tuple[ast.BinaryOp, ...] = ()
    other_conditions: Tuple[ast.Expression, ...] = ()
    key: Optional[Tuple[ast.BinaryOp, ast.ColumnRef, ast.ColumnRef]] = None
    index: bool = False

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)

    def describe(self) -> str:
        from repro.sql.printer import expression_to_sql

        conds = list(self.equi_conditions) + list(self.other_conditions)
        if not conds:
            return "CrossJoin"
        text = " AND ".join(expression_to_sql(c, top_level=True) for c in conds)
        if self.index:
            kind = "IndexJoin"
        else:
            kind = "HashJoin" if self.key is not None else "NestedLoopJoin"
        return f"{kind}({text})"


@dataclass
class AggregateNode(PlanNode):
    """Group rows and compute aggregate functions."""

    child: PlanNode
    group_by: Tuple[ast.Expression, ...]
    aggregates: Tuple[ast.FunctionCall, ...]

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def describe(self) -> str:
        groups = ", ".join(str(g) for g in self.group_by) or "()"
        aggs = ", ".join(str(a) for a in self.aggregates) or "()"
        return f"Aggregate(group by {groups}; compute {aggs})"


@dataclass
class ProjectNode(PlanNode):
    """Compute the select list; a star selects columns of ``from_tables``."""

    child: PlanNode
    items: Tuple[ast.SelectItem, ...]
    from_tables: Tuple[ast.TableRef, ...]

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def describe(self) -> str:
        return "Project(" + ", ".join(str(i) for i in self.items) + ")"


@dataclass
class DistinctNode(PlanNode):
    child: PlanNode

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def describe(self) -> str:
        return "Distinct"


@dataclass
class SortNode(PlanNode):
    """Sort rows.

    Sorting runs *before* projection so ORDER BY may reference columns that
    are not part of the select list; ``select_items`` lets the executor also
    resolve references to select-list aliases.
    """

    child: PlanNode
    order_by: Tuple[ast.OrderItem, ...]
    select_items: Tuple[ast.SelectItem, ...] = ()

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def describe(self) -> str:
        return "Sort(" + ", ".join(str(o) for o in self.order_by) + ")"


@dataclass
class LimitNode(PlanNode):
    child: PlanNode
    limit: Optional[int]
    offset: Optional[int]

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def describe(self) -> str:
        parts = []
        if self.limit is not None:
            parts.append(f"limit {self.limit}")
        if self.offset is not None:
            parts.append(f"offset {self.offset}")
        return "Limit(" + ", ".join(parts) + ")"


@dataclass
class LogicalPlan:
    """A complete plan for a SELECT statement."""

    root: PlanNode
    statement: ast.SelectStatement

    def explain(self) -> str:
        """An indented, human-readable rendering of the plan tree."""
        lines: List[str] = []

        def walk(node: PlanNode, depth: int) -> None:
            lines.append("  " * depth + node.describe())
            for child in node.children():
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Predicate classification
# ---------------------------------------------------------------------------


@dataclass
class ClassifiedPredicates:
    """WHERE conjuncts grouped by how the planner can use them."""

    local: Dict[str, List[ast.Expression]] = field(default_factory=dict)
    joins: List[ast.BinaryOp] = field(default_factory=list)
    residual: List[ast.Expression] = field(default_factory=list)


def referenced_bindings(expression: ast.Expression, known: Set[str]) -> Set[str]:
    """Tuple variables from ``known`` referenced by ``expression``.

    Column references inside nested subqueries are included only when they
    refer to an outer binding (correlation), which is exactly what the
    planner needs to decide whether a predicate is local.
    """
    found: Set[str] = set()
    lowered = {k.lower(): k for k in known}
    for node in expression.walk():
        if isinstance(node, ast.ColumnRef) and node.table is not None:
            key = node.table.lower()
            if key in lowered:
                found.add(lowered[key])
        if isinstance(node, ast.SelectStatement):
            inner = {t.binding.lower() for t in node.from_tables}
            for sub in node.walk():
                if isinstance(sub, ast.ColumnRef) and sub.table is not None:
                    key = sub.table.lower()
                    if key in lowered and key not in inner:
                        found.add(lowered[key])
    return found


def classify_predicates(
    where: Optional[ast.Expression], bindings: Sequence[str]
) -> ClassifiedPredicates:
    """Split a WHERE clause into local, join and residual conjuncts."""
    known = set(bindings)
    result = ClassifiedPredicates(local={b: [] for b in bindings})
    for conjunct in ast.conjuncts(where):
        has_subquery = any(
            isinstance(n, (ast.InSubquery, ast.Exists, ast.QuantifiedComparison, ast.ScalarSubquery))
            for n in conjunct.walk()
        )
        refs = referenced_bindings(conjunct, known)
        unqualified = any(
            isinstance(n, ast.ColumnRef) and n.table is None for n in conjunct.walk()
        )
        if has_subquery or unqualified:
            result.residual.append(conjunct)
        elif ast.is_join_condition(conjunct) and len(refs) == 2:
            result.joins.append(conjunct)  # type: ignore[arg-type]
        elif len(refs) <= 1:
            binding = next(iter(refs), None)
            if binding is None:
                result.residual.append(conjunct)
            else:
                result.local[binding].append(conjunct)
        else:
            result.residual.append(conjunct)
    return result


def pushable_equality(
    predicate: ast.Expression, binding: str
) -> Optional[Tuple[str, ast.Expression]]:
    """``(column, value_expr)`` when ``predicate`` is an index-usable equality.

    A conjunct is pushable into a scan of ``binding`` when it has the shape
    ``binding.column = value`` (either side) and ``value`` is constant with
    respect to the binding: no reference to the binding itself, no
    unqualified references, no subqueries, no aggregates.  Correlated
    references to *outer* bindings are allowed — the executor evaluates the
    value against the outer row, which turns correlated filters into index
    probes.
    """
    if not isinstance(predicate, ast.BinaryOp) or predicate.op != "=":
        return None
    lowered = binding.lower()
    for column_side, value_side in (
        (predicate.left, predicate.right),
        (predicate.right, predicate.left),
    ):
        if (
            isinstance(column_side, ast.ColumnRef)
            and column_side.table is not None
            and column_side.table.lower() == lowered
            and _constant_wrt(value_side, lowered)
        ):
            return column_side.column, value_side
    return None


def keyed_equalities(
    where: Optional[ast.Expression], binding: str, has_column: Callable[[str], bool]
) -> List[Tuple[str, ast.Expression]]:
    """``(column, value)`` pairs an UPDATE or DELETE can probe an index with.

    The top-level conjuncts of ``where`` that :func:`pushable_equality`
    pushes into a scan of ``binding``, with a value side that names no
    column.  A DML WHERE has one binding and no outer scope, so outside
    subqueries a bare name can only be a column of the target table: a
    bare column side for which ``has_column`` holds is read as
    ``binding.column``.  Any other name leaves its conjunct unprobed.
    """
    pairs: List[Tuple[str, ast.Expression]] = []
    for conjunct in ast.conjuncts(where):
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            conjunct = replace(
                conjunct,
                left=_bound(conjunct.left, binding, has_column),
                right=_bound(conjunct.right, binding, has_column),
            )
        pushable = pushable_equality(conjunct, binding)
        if pushable is not None and not any(
            isinstance(node, ast.ColumnRef) for node in pushable[1].walk()
        ):
            pairs.append(pushable)
    return pairs


def _bound(
    side: ast.Expression, binding: str, has_column: Callable[[str], bool]
) -> ast.Expression:
    if isinstance(side, ast.ColumnRef) and side.table is None and has_column(side.column):
        return ast.ColumnRef(side.column, binding)
    return side


def _constant_wrt(expression: ast.Expression, binding_lower: str) -> bool:
    """True when ``expression`` cannot depend on the scanned binding's row."""
    for node in expression.walk():
        if isinstance(
            node,
            (ast.InSubquery, ast.Exists, ast.QuantifiedComparison, ast.ScalarSubquery, ast.Star),
        ):
            return False
        if isinstance(node, ast.FunctionCall) and node.is_aggregate:
            return False
        if isinstance(node, ast.ColumnRef):
            if node.table is None or node.table.lower() == binding_lower:
                return False
    return True


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


class Planner:
    """Build a :class:`LogicalPlan` from a SELECT statement over ``schema``.

    The left-deep join tree starts at the first binding in FROM order with
    pushed equality conjuncts; a FROM list with none starts at its first
    binding.  The tree then grows along equi-join edges.  Each join's key
    (:attr:`JoinNode.key`) is its first equi-condition that joins a column
    the outer side's table declares to one the inner side's table declares.
    In a tree that starts at such a binding, a join with a key is an index
    join (:attr:`JoinNode.index`) when its inner input is a bare base-table
    scan and every column that scan's pushed conjuncts name is declared by
    its table.  The choices read only the statement and ``schema``, so a
    plan stays valid whatever the data.  A SELECT without FROM runs the
    same pipeline over one empty row.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema

    def plan(self, statement: ast.SelectStatement) -> LogicalPlan:
        bindings = [t.binding for t in statement.from_tables]
        if len(set(b.lower() for b in bindings)) != len(bindings):
            raise PlanningError("duplicate tuple-variable names in FROM clause")

        classified = classify_predicates(statement.where, bindings)

        # Base access paths: scan (with pushed equality conjuncts) plus
        # local filters for whatever could not be pushed.
        inputs: Dict[str, PlanNode] = {}
        scans: Dict[str, ScanNode] = {}
        for table in statement.from_tables:
            eq_columns: List[str] = []
            eq_values: List[ast.Expression] = []
            pushed: List[ast.Expression] = []
            filters: List[ast.Expression] = []
            for predicate in classified.local.get(table.binding, []):
                pushable = pushable_equality(predicate, table.binding)
                if pushable is not None:
                    column, value = pushable
                    eq_columns.append(column)
                    eq_values.append(value)
                    pushed.append(predicate)
                else:
                    filters.append(predicate)
            scan = ScanNode(
                table_name=table.name,
                binding=table.binding,
                eq_columns=tuple(eq_columns),
                eq_values=tuple(eq_values),
                pushed_filters=tuple(pushed),
            )
            scans[table.binding.lower()] = scan
            node: PlanNode = scan
            for predicate in filters:
                node = FilterNode(child=node, predicate=predicate)
            inputs[table.binding] = node

        if bindings:
            root = self._join_order(inputs, scans, bindings, classified.joins)
        else:
            root = ScanNode(table_name="", binding="")  # no FROM: one empty row

        for predicate in classified.residual:
            root = FilterNode(child=root, predicate=predicate)

        aggregates = self._collect_aggregates(statement)
        if statement.group_by or aggregates:
            root = AggregateNode(
                child=root, group_by=statement.group_by, aggregates=tuple(aggregates)
            )
            if statement.having is not None:
                root = FilterNode(child=root, predicate=statement.having)
        elif statement.having is not None:
            # HAVING without GROUP BY behaves like a filter over one big group;
            # with no aggregates in our subset it degenerates to a WHERE.
            root = FilterNode(child=root, predicate=statement.having)

        if statement.order_by:
            root = SortNode(
                child=root,
                order_by=statement.order_by,
                select_items=statement.select_items,
            )
        root = ProjectNode(
            child=root, items=statement.select_items, from_tables=statement.from_tables
        )
        if statement.distinct:
            root = DistinctNode(child=root)
        if statement.limit is not None or statement.offset is not None:
            root = LimitNode(child=root, limit=statement.limit, offset=statement.offset)
        return LogicalPlan(root=root, statement=statement)

    # ------------------------------------------------------------------

    def _join_order(
        self,
        inputs: Dict[str, PlanNode],
        scans: Dict[str, ScanNode],
        bindings: Sequence[str],
        join_conditions: List[ast.BinaryOp],
    ) -> PlanNode:
        """Greedy left-deep join ordering that prefers connected joins.

        ``scans`` maps each lower-cased binding to the base-table scan under
        its input.  The tree starts at the first binding with pushed
        equality conjuncts, else at the first binding.
        """
        all_bindings = set(bindings)
        remaining = list(bindings)
        pending = list(join_conditions)

        start = next((b for b in bindings if scans[b.lower()].eq_columns), None)
        current_bindings = {remaining.pop(0 if start is None else remaining.index(start))}
        root = inputs[next(iter(current_bindings))]

        while remaining:
            chosen_index = self._pick_connected(
                remaining, current_bindings, pending, all_bindings
            )
            candidate = remaining.pop(chosen_index)
            new_bindings = current_bindings | {candidate}

            usable: List[ast.BinaryOp] = []
            still_pending: List[ast.BinaryOp] = []
            for cond in pending:
                refs = referenced_bindings(cond, all_bindings)
                if refs and refs <= new_bindings and candidate in refs:
                    usable.append(cond)
                else:
                    still_pending.append(cond)
            pending = still_pending

            equi = tuple(c for c in usable if ast.is_join_condition(c))
            other = tuple(c for c in usable if not ast.is_join_condition(c))
            inner = inputs[candidate]
            key = self._join_key(equi, scans[candidate.lower()], scans)
            index = (
                key is not None
                and start is not None
                and isinstance(inner, ScanNode)
                and all(map(self.schema.relation(inner.table_name).has_attribute, inner.eq_columns))
            )
            root = JoinNode(
                left=root,
                right=inner,
                equi_conditions=equi,
                other_conditions=other,
                key=key,
                index=index,
            )
            current_bindings = new_bindings

        # Any join conditions not consumed (e.g. self-join conditions over the
        # same binding pair already joined) become filters.
        for cond in pending:
            root = FilterNode(child=root, predicate=cond)
        return root

    def _join_key(
        self,
        equi: Sequence[ast.BinaryOp],
        inner: ScanNode,
        scans: Dict[str, ScanNode],
    ) -> Optional[Tuple[ast.BinaryOp, ast.ColumnRef, ast.ColumnRef]]:
        """``(condition, outer column, inner column)`` of a join into ``inner``.

        The first of ``equi`` that joins a column the outer side's table
        declares to one the table of the scan ``inner`` declares; None
        when no condition does.
        """
        binding = inner.binding.lower()
        relation = self._relation(inner.table_name)
        if relation is None:
            return None
        for cond in equi:
            for outer_ref, inner_ref in ((cond.left, cond.right), (cond.right, cond.left)):
                if inner_ref.table.lower() != binding:
                    continue
                outer = self._relation(scans[outer_ref.table.lower()].table_name)
                if (
                    outer is not None
                    and outer.has_attribute(outer_ref.column)
                    and relation.has_attribute(inner_ref.column)
                ):
                    return cond, outer_ref, inner_ref
        return None

    def _relation(self, table_name: str) -> Optional[Relation]:
        """The schema's relation named ``table_name``, or None when unknown."""
        try:
            return self.schema.relation(table_name)
        except UnknownRelationError:
            return None

    def _pick_connected(
        self,
        remaining: Sequence[str],
        current_bindings: Set[str],
        pending: Sequence[ast.BinaryOp],
        all_bindings: Set[str],
    ) -> int:
        """Index of the next binding connected to the prefix by a join condition.

        A binding is "connected" when some pending join condition references
        only bindings from the current prefix plus that candidate (so the
        condition becomes fully evaluable once the candidate joins).
        """
        for index, candidate in enumerate(remaining):
            probe = current_bindings | {candidate}
            for cond in pending:
                refs = referenced_bindings(cond, all_bindings)
                if candidate in refs and refs <= probe and refs & current_bindings:
                    return index
        return 0

    def _collect_aggregates(self, statement: ast.SelectStatement) -> List[ast.FunctionCall]:
        aggregates: List[ast.FunctionCall] = []
        seen: Set[str] = set()
        for item in statement.select_items:
            self._collect_shallow_aggregates(item.expression, aggregates, seen)
        if statement.having is not None:
            self._collect_shallow_aggregates(statement.having, aggregates, seen)
        for order in statement.order_by:
            self._collect_shallow_aggregates(order.expression, aggregates, seen)
        return aggregates

    def _collect_shallow_aggregates(
        self, expression: ast.Expression, out: List[ast.FunctionCall], seen: Set[str]
    ) -> None:
        """Collect aggregates in HAVING without descending into subqueries."""
        if isinstance(expression, ast.FunctionCall) and expression.is_aggregate:
            key = str(expression)
            if key not in seen:
                seen.add(key)
                out.append(expression)
            return
        if isinstance(
            expression, (ast.InSubquery, ast.Exists, ast.QuantifiedComparison, ast.ScalarSubquery)
        ):
            return
        for child in expression.children():
            if isinstance(child, ast.Expression):
                self._collect_shallow_aggregates(child, out, seen)


def plan_query(statement: ast.SelectStatement, schema: Schema) -> LogicalPlan:
    """Plan ``statement`` over ``schema`` with the default planner."""
    return Planner(schema).plan(statement)
