"""Build a :class:`QueryGraph` from a parsed SELECT statement.

Validation is *fused* into the graph-build pass: the builder used to run
:class:`repro.sql.validator.Validator` over every expression and then walk
the exact same expressions again to distribute them over the graph.  The
fused pass resolves each column reference once — the probe that decides
where a conjunct belongs is the same probe that raises the validator's
errors — and nested subqueries are validated by their own (nested) build.
The standalone validator is retained as the differential oracle:
``use_reference_validation()`` switches a scope back to the two-pass
pipeline, and the test suite asserts that both modes produce identical
graphs on valid statements and identical error objects on invalid ones.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.catalog.schema import Schema
from repro.errors import SqlValidationError
from repro.sql import ast
from repro.sql.parser import parse_select
from repro.sql.printer import expression_to_sql
from repro.sql.validator import Validator
from repro.querygraph.model import (
    Constraint,
    NestingEdge,
    QueryClass,
    QueryGraph,
    QueryJoinEdge,
    SelectEntry,
)

_REFERENCE_VALIDATION = False


@contextmanager
def use_reference_validation() -> Iterator[None]:
    """Route graph builds through the standalone-validator oracle for a scope.

    Used by the benchmarks to measure the two-pass front end and by the
    differential tests that compare fused and oracle error objects.
    """
    global _REFERENCE_VALIDATION
    previous = _REFERENCE_VALIDATION
    _REFERENCE_VALIDATION = True
    try:
        yield
    finally:
        _REFERENCE_VALIDATION = previous


class _FusedScope:
    """Lookup maps for one SELECT's *visible* bindings, the outer ones
    merged with its own FROM bindings.

    Mirrors ``repro.sql.validator._Scope`` exactly (construction order and
    all).
    """

    __slots__ = ("visible_items", "lowered", "owners")

    def __init__(
        self,
        outer_items: Tuple[Tuple[str, object], ...],
        local_map: Dict[str, object],
    ) -> None:
        merged: Dict[str, object] = dict(outer_items)
        merged.update(local_map)
        visible_items = tuple(merged.items())
        self.visible_items = visible_items
        lowered: Dict[str, Tuple[str, object]] = {}
        for binding, relation in visible_items:
            lowered.setdefault(binding.lower(), (binding, relation))
        self.lowered = lowered
        owners: Dict[str, List[Tuple[str, object]]] = {}
        for binding, relation in visible_items:
            for attribute in relation.attribute_names:
                bucket = owners.setdefault(attribute.lower(), [])
                if not bucket or bucket[-1][0] != binding:
                    bucket.append((binding, relation))
        self.owners = owners


class _Build:
    """One statement's bindings, as its graph-build pass reads them.

    ``relations`` maps each FROM binding to its relation's name;
    ``lowered`` (lowered alias -> binding) and ``owners`` (lowered
    attribute -> the bindings declaring it) place a column on a local
    binding.  ``scope`` is the fused validation scope, outer bindings
    included; None in reference mode.
    """

    __slots__ = ("relations", "lowered", "owners", "scope")

    def __init__(self, binding_map: Dict[str, object], scope: Optional[_FusedScope]) -> None:
        self.relations = {binding: relation.name for binding, relation in binding_map.items()}
        self.lowered = {binding.lower(): binding for binding in binding_map}
        owners: Dict[str, List[str]] = {}
        for binding, relation in binding_map.items():
            for attribute in relation.attribute_names:
                bucket = owners.setdefault(attribute.lower(), [])
                if not bucket or bucket[-1] != binding:
                    bucket.append(binding)
        self.owners = owners
        self.scope = scope


class QueryGraphBuilder:
    """Translate SELECT ASTs into the UML-style query graph of Section 3.2.

    Each ``build`` performs the fused validate-and-distribute pass
    described in the module docstring, keeping its binding maps and
    validation scope in a per-build :class:`_Build`, so one builder can
    serve concurrent builds.  The builder itself keeps only relation and
    FK-pair lookups, whose values never change, so concurrent fills are
    harmless.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.validator = Validator(schema)
        self._relation_cache: Dict[str, object] = {}
        self._fk_pair_cache: Dict[Tuple[str, str], frozenset] = {}

    def _relation(self, name: str):
        relation = self._relation_cache.get(name)
        if relation is None:
            relation = self.schema.relation(name)
            self._relation_cache[name] = relation
        return relation

    # ------------------------------------------------------------------

    def build_from_sql(self, sql: str) -> QueryGraph:
        return self.build(parse_select(sql))

    def build(self, statement: ast.SelectStatement, depth: int = 0,
              outer_bindings: Optional[Dict[str, str]] = None,
              _validated: bool = False) -> QueryGraph:
        """Build the query graph; nested queries become nested graphs.

        In fused mode (the default) semantic validation happens inside the
        distribution walk below.  In reference mode the standalone
        validator runs first; ``_validated`` is then set by
        :meth:`_nesting_edge` for subqueries, whose outer
        ``validate_select`` already validated them recursively.
        """
        fused = not _REFERENCE_VALIDATION
        if not fused and not _validated:
            self.validator.validate_select(
                statement, outer_bindings=self._outer_relations(outer_bindings)
            )
        graph = QueryGraph(statement=statement, depth=depth)

        binding_map = self._collect_bindings_checked(statement)
        for binding, relation in binding_map.items():
            graph.classes[binding] = QueryClass(binding=binding, relation_name=relation.name)
        scope = (
            _FusedScope(self._outer_scope_items(outer_bindings), binding_map)
            if fused
            else None
        )
        build = _Build(binding_map, scope)

        # Clause order matches the validator's traversal (select, where,
        # group, having, order) so the fused pass surfaces the same first
        # error the two-pass pipeline would.
        self._distribute_select(statement, graph, build)
        self._distribute_where(statement, graph, build, outer_bindings)
        self._distribute_group(statement, graph, build)
        self._distribute_having(statement, graph, build, outer_bindings)
        self._distribute_order(statement, graph, build)
        return graph

    # ------------------------------------------------------------------
    # Fused validation: scopes, column checks and the combined walk
    # ------------------------------------------------------------------

    def _collect_bindings_checked(self, statement: ast.SelectStatement) -> Dict[str, object]:
        """FROM-clause bindings with the validator's exact error objects."""
        bindings: Dict[str, object] = {}
        seen: set = set()
        for table in statement.from_tables:
            if not self.schema.has_relation(table.name):
                raise SqlValidationError(
                    f"unknown relation {table.name!r} in FROM clause"
                )
            relation = self._relation(table.name)
            binding = table.binding
            lowered = binding.lower()
            if lowered in seen:
                raise SqlValidationError(
                    f"duplicate table alias {binding!r} in FROM clause"
                )
            seen.add(lowered)
            bindings[binding] = relation
        return bindings

    def _outer_scope_items(
        self, outer_bindings: Optional[Dict[str, str]]
    ) -> Tuple[Tuple[str, object], ...]:
        if not outer_bindings:
            return ()
        return tuple(
            (binding, self._relation(relation))
            for binding, relation in outer_bindings.items()
        )

    def _check_column(self, column: ast.ColumnRef, scope: _FusedScope) -> None:
        """Resolve one column reference, raising the validator's errors."""
        if column.table is not None:
            entry = scope.lowered.get(column.table.lower())
            if entry is None:
                raise SqlValidationError(f"unknown table alias {column.table!r}")
            binding, relation = entry
            if relation._find(column.column) is None:
                raise SqlValidationError(
                    f"relation {relation.name!r} (alias {column.table!r}) has no"
                    f" attribute {column.column!r}"
                )
            return
        matches = scope.owners.get(column.column.lower(), ())
        if not matches:
            raise SqlValidationError(
                f"column {column.column!r} does not exist in any table of the query"
            )
        if len(matches) > 1:
            candidates = ", ".join(f"{b}.{column.column}" for b, _ in matches)
            raise SqlValidationError(
                f"column reference {column.column!r} is ambiguous ({candidates})"
            )

    def _walk_validate(
        self,
        expression: ast.Expression,
        scope: _FusedScope,
        collector: List[ast.ColumnRef],
    ) -> None:
        """One walk doing the validator's checks *and* column collection."""
        if isinstance(expression, ast.ColumnRef):
            self._check_column(expression, scope)
            collector.append(expression)
            return
        if isinstance(
            expression,
            (ast.InSubquery, ast.Exists, ast.QuantifiedComparison, ast.ScalarSubquery),
        ):
            if isinstance(expression, (ast.InSubquery, ast.QuantifiedComparison)):
                self._walk_validate(expression.operand, scope, collector)
            self._validate_subselect(expression.subquery, scope, collector)
            return
        if isinstance(expression, ast.SelectStatement):  # pragma: no cover - defensive
            self._validate_subselect(expression, scope, collector)
            return
        for child in expression.children():
            if isinstance(child, ast.Expression):
                self._walk_validate(child, scope, collector)

    def _validate_subselect(
        self,
        statement: ast.SelectStatement,
        outer_scope: _FusedScope,
        collector: List[ast.ColumnRef],
    ) -> None:
        """Validate a subquery that does not become a nested graph.

        Conjunct-level subqueries (IN/EXISTS/quantified/scalar connectors)
        are validated by their own nested ``build``; this path covers
        subqueries in other positions (select list, inside OR, order by).
        The collector keeps accumulating column references so the outer
        placement walk sees exactly what ``ast.column_refs`` used to see.
        """
        bindings = self._collect_bindings_checked(statement)
        scope = _FusedScope(outer_scope.visible_items, bindings)
        for item in statement.select_items:
            self._walk_validate(item.expression, scope, collector)
        if statement.where is not None:
            self._walk_validate(statement.where, scope, collector)
        for expression in statement.group_by:
            self._walk_validate(expression, scope, collector)
        if statement.having is not None:
            self._walk_validate(statement.having, scope, collector)
        for order in statement.order_by:
            self._walk_validate(order.expression, scope, collector)

    def _analyse(self, expression: ast.Expression, build: _Build) -> List[ast.ColumnRef]:
        """Column references of ``expression``, validating them in fused mode."""
        if build.scope is not None:
            collector: List[ast.ColumnRef] = []
            self._walk_validate(expression, build.scope, collector)
            return collector
        return list(ast.column_refs(expression))

    # ------------------------------------------------------------------
    # SELECT list
    # ------------------------------------------------------------------

    def _distribute_select(
        self,
        statement: ast.SelectStatement,
        graph: QueryGraph,
        build: _Build,
    ) -> None:
        for item in statement.select_items:
            expression = item.expression
            if isinstance(expression, ast.ColumnRef):
                self._analyse(expression, build)
                binding = self._binding_of(expression, build)
                if binding is None:
                    graph.other_constraints.append(Constraint.from_expression(expression))
                    continue
                relation_name = build.relations[binding]
                attribute = self._relation(relation_name).attribute(expression.column).name
                graph.classes[binding].select_entries.append(
                    SelectEntry(
                        binding=binding,
                        relation_name=relation_name,
                        attribute=attribute,
                        output_alias=item.alias,
                    )
                )
            elif isinstance(expression, ast.FunctionCall) and expression.is_aggregate:
                columns = self._analyse(expression, build)
                rendered = str(expression)
                target = self._aggregate_binding(columns, build.relations)
                if target is not None:
                    graph.classes[target].aggregate_entries.append(rendered)
                else:
                    graph.global_aggregates.append(rendered)
            elif isinstance(expression, ast.Star):
                star = expression
                for binding, relation_name in build.relations.items():
                    if star.table is not None and binding.lower() != star.table.lower():
                        continue
                    relation = self._relation(relation_name)
                    for attribute in relation.attributes:
                        graph.classes[binding].select_entries.append(
                            SelectEntry(
                                binding=binding,
                                relation_name=relation_name,
                                attribute=attribute.name,
                            )
                        )
            else:
                self._analyse(expression, build)
                graph.other_constraints.append(Constraint.from_expression(expression))

    def _aggregate_binding(
        self, columns: List[ast.ColumnRef], relations: Dict[str, str]
    ) -> Optional[str]:
        """The class an aggregate belongs to: the single binding it references.

        ``count(*)`` references no binding and stays global, matching
        Figure 7 where ``count(*)`` is drawn inside the class it counts
        only when the argument names it.
        """
        referenced = {
            column.table.lower() for column in columns if column.table is not None
        }
        matches = [b for b in relations if b.lower() in referenced]
        if len(matches) == 1:
            return matches[0]
        return None

    # ------------------------------------------------------------------
    # WHERE clause
    # ------------------------------------------------------------------

    def _distribute_where(
        self,
        statement: ast.SelectStatement,
        graph: QueryGraph,
        build: _Build,
        outer_bindings: Optional[Dict[str, str]],
    ) -> None:
        for conjunct in ast.conjuncts(statement.where):
            self._place_conjunct(conjunct, graph, build, outer_bindings, in_having=False)

    def _distribute_having(
        self,
        statement: ast.SelectStatement,
        graph: QueryGraph,
        build: _Build,
        outer_bindings: Optional[Dict[str, str]],
    ) -> None:
        for conjunct in ast.conjuncts(statement.having):
            self._place_conjunct(conjunct, graph, build, outer_bindings, in_having=True)

    def _place_conjunct(
        self,
        conjunct: ast.Expression,
        graph: QueryGraph,
        build: _Build,
        outer_bindings: Optional[Dict[str, str]],
        in_having: bool,
    ) -> None:
        nested = self._nesting_edge(conjunct, graph, build, outer_bindings, in_having)
        if nested is not None:
            graph.nesting_edges.append(nested)
            return

        columns = self._analyse(conjunct, build)
        referenced = self._referenced_bindings(columns, build)

        if len(referenced) == 2 and isinstance(conjunct, ast.BinaryOp) and not in_having:
            left, right = sorted(referenced)
            graph.join_edges.append(
                QueryJoinEdge(
                    left_binding=left,
                    right_binding=right,
                    condition=conjunct,
                    is_foreign_key=self._is_fk_join(conjunct, build),
                    is_equality=conjunct.op == "=",
                )
            )
            return
        constraint = Constraint.from_expression(conjunct)
        if len(referenced) == 1:
            binding = next(iter(referenced))
            target = graph.classes[binding]
            if in_having:
                target.having_constraints.append(constraint)
            else:
                target.where_constraints.append(constraint)
            return
        graph.other_constraints.append(constraint)

    def _nesting_edge(
        self,
        conjunct: ast.Expression,
        graph: QueryGraph,
        build: _Build,
        outer_bindings: Optional[Dict[str, str]],
        in_having: bool,
    ) -> Optional[NestingEdge]:
        """Build a nesting edge when the conjunct contains a subquery connector.

        Operands and subqueries are analysed in the validator's traversal
        order (left before right, operand before subquery) so the fused
        pass reports the same first error the oracle would.
        """
        visible = dict(outer_bindings or {})
        visible.update(build.relations)

        connector: Optional[str] = None
        subgraph: Optional[QueryGraph] = None
        outer_binding: Optional[str] = None

        def nested_build(subquery: ast.SelectStatement) -> QueryGraph:
            return self.build(
                subquery, depth=graph.depth + 1, outer_bindings=visible, _validated=True
            )

        if isinstance(conjunct, ast.InSubquery):
            connector = "NOT IN" if conjunct.negated else "IN"
            outer_binding = self._first_binding(self._analyse(conjunct.operand, build), build)
            subgraph = nested_build(conjunct.subquery)
        elif isinstance(conjunct, ast.Exists):
            connector = "NOT EXISTS" if conjunct.negated else "EXISTS"
            subgraph = nested_build(conjunct.subquery)
        elif isinstance(conjunct, ast.QuantifiedComparison):
            connector = f"{conjunct.op} {conjunct.quantifier}"
            outer_binding = self._first_binding(self._analyse(conjunct.operand, build), build)
            subgraph = nested_build(conjunct.subquery)
        elif isinstance(conjunct, ast.BinaryOp):
            left, right = conjunct.left, conjunct.right
            if isinstance(left, ast.ScalarSubquery):
                connector = f"SCALAR {conjunct.op}"
                subgraph = nested_build(left.subquery)
                outer_binding = self._first_binding(self._analyse(right, build), build)
            elif isinstance(right, ast.ScalarSubquery):
                connector = f"SCALAR {conjunct.op}"
                outer_binding = self._first_binding(self._analyse(left, build), build)
                subgraph = nested_build(right.subquery)

        if connector is None or subgraph is None:
            return None

        return NestingEdge(
            connector=connector,
            subgraph=subgraph,
            outer_binding=outer_binding,
            in_having=in_having,
            condition_text=expression_to_sql(conjunct, top_level=True),
        )

    # ------------------------------------------------------------------
    # GROUP BY / ORDER BY notes
    # ------------------------------------------------------------------

    def _distribute_group(
        self,
        statement: ast.SelectStatement,
        graph: QueryGraph,
        build: _Build,
    ) -> None:
        for expression in statement.group_by:
            binding = self._first_binding(self._analyse(expression, build), build)
            rendered = expression_to_sql(expression, top_level=True)
            if binding is not None:
                graph.classes[binding].group_by.append(rendered)
            else:
                graph.other_constraints.append(Constraint.from_expression(expression))

    def _distribute_order(
        self,
        statement: ast.SelectStatement,
        graph: QueryGraph,
        build: _Build,
    ) -> None:
        for order in statement.order_by:
            binding = self._first_binding(self._analyse(order.expression, build), build)
            rendered = expression_to_sql(order.expression, top_level=True)
            if order.descending:
                rendered += " DESC"
            if binding is not None:
                graph.classes[binding].order_by.append(rendered)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _outer_relations(self, outer_bindings: Optional[Dict[str, str]]):
        if not outer_bindings:
            return None
        return {
            binding: self._relation(relation)
            for binding, relation in outer_bindings.items()
        }

    def _referenced_bindings(self, columns: List[ast.ColumnRef], build: _Build) -> set:
        lowered, owners = build.lowered, build.owners
        found = set()
        for column in columns:
            if column.table is not None:
                binding = lowered.get(column.table.lower())
                if binding is not None:
                    found.add(binding)
            else:
                owning = owners.get(column.column.lower())
                if owning is not None and len(owning) == 1:
                    found.add(owning[0])
        return found

    def _binding_of(self, column: ast.ColumnRef, build: _Build) -> Optional[str]:
        lowered, owners = build.lowered, build.owners
        if column.table is not None:
            return lowered.get(column.table.lower())
        owning = owners.get(column.column.lower())
        if owning is None:
            return None
        if len(owning) == 1:
            return owning[0]
        raise SqlValidationError(f"ambiguous column {column.column!r}")

    def _first_binding(self, columns: List[ast.ColumnRef], build: _Build) -> Optional[str]:
        for column in columns:
            binding = self._binding_of(column, build)
            if binding is not None:
                return binding
        return None

    def _is_fk_join(self, condition: ast.BinaryOp, build: _Build) -> bool:
        """True when the equality matches a declared FK column pair."""
        if not ast.is_join_condition(condition):
            return False
        left = condition.left
        right = condition.right
        assert isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef)
        left_binding = self._binding_of(left, build)
        right_binding = self._binding_of(right, build)
        if left_binding is None or right_binding is None:
            return False
        left_relation = build.relations[left_binding]
        right_relation = build.relations[right_binding]
        pairs = self._fk_pairs(left_relation, right_relation)
        if not pairs:
            return False
        return (
            (left.column.lower(), right.column.lower()) in pairs
            or (right.column.lower(), left.column.lower()) in pairs
        )

    def _fk_pairs(self, left_relation: str, right_relation: str) -> frozenset:
        """Lowered FK column pairs between two relations, memoized."""
        key = (left_relation, right_relation)
        pairs = self._fk_pair_cache.get(key)
        if pairs is None:
            collected = set()
            for fk in self.schema.foreign_keys_between(left_relation, right_relation):
                for a, b in fk.column_pairs():
                    collected.add((a.lower(), b.lower()))
            pairs = frozenset(collected)
            self._fk_pair_cache[key] = pairs
        return pairs


#: One builder per schema for the convenience entry point, so repeated
#: ``build_query_graph`` calls share the memoized relation lookups.  The
#: builder keeps its schema alive, so in practice this is one entry per
#: distinct schema the process works with.
_SHARED_BUILDERS: "weakref.WeakKeyDictionary[Schema, QueryGraphBuilder]" = (
    weakref.WeakKeyDictionary()
)
_SHARED_BUILDERS_LOCK = threading.Lock()


def builder_for(schema: Schema) -> QueryGraphBuilder:
    """The shared builder for ``schema``, its relation and FK-pair lookups memoized."""
    with _SHARED_BUILDERS_LOCK:
        builder = _SHARED_BUILDERS.get(schema)
        if builder is None:
            builder = QueryGraphBuilder(schema)
            _SHARED_BUILDERS[schema] = builder
        return builder


def build_query_graph(schema: Schema, sql_or_statement) -> QueryGraph:
    """Convenience: build the query graph for SQL text or a parsed SELECT."""
    builder = builder_for(schema)
    if isinstance(sql_or_statement, str):
        return builder.build_from_sql(sql_or_statement)
    return builder.build(sql_or_statement)
