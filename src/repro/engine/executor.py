"""Physical execution of logical plans against a :class:`Database`.

The executor is pipelined Python iterators over in-memory rows, but the
hot paths are *compiled*: each plan is built once into runners, one
generator function per plan node over closure trees compiled from its
predicates and projections (see :mod:`repro.engine.compile`; the Volcano
operator tree of Graefe, IEEE TKDE 1994), plans and their runners are
cached per SQL shape, and equality conjuncts pushed into scans probe
hash indexes.  Rows pass between runners as tuples: when a runner is
built, each column reference is bound to a slot of its input's
*layout* (the column names its rows carry), so a scan hands out a
table's rows as tuples whatever the alias, a join concatenates two
tuples, and only the result builds :class:`Row` objects.  A full scan's
tuples are cached per table and checked against the table's version.  The paper
needs this to be fast because execution is part of the *interactive*
loop: it verifies translations (e.g. Q5's flattened vs. nested form) and
explains empty answers at answer time.

Subqueries are analysed once per statement.  A *key-correlated* one
(every outer reference sits in a top-level ``inner_column =
outer_column`` link; no aggregate, grouping, DISTINCT, ORDER BY or
LIMIT) is evaluated per outer key, through index probes and a memo,
until that has cost about what one run of it without its links would;
then it runs once and is hashed on its link columns, and every later
outer row is a probe (rent or buy).  This is the hash semi-/anti-join
of Neumann & Kemper, "Unnesting Arbitrary Queries" (BTW 2015).  A block
under [NOT] EXISTS whose outer references all sit in one nested
[NOT] EXISTS over a key-correlated block -- relational division, Q6 --
is decided per outer key by set containment (Graefe, "Relational
Division: Four Algorithms and Their Performance", ICDE 1989).  Any other
subquery is memoized on the outer values it reads.  Tables and memo live
in the statement scope below and die with the data they were built on.

Every compiled SELECT text runs through one path, a *shape plan* (see
:mod:`repro.engine.parameterised`): queries that differ only in their
literal values execute through one compiled plan whose predicate
closures and index probes read a bound-parameter vector, so the warm
path for a fresh literal variant is a shape lookup plus a rebind — no
parse, no plan, no compile.  Literals the plan bakes in (unaliased
select items, LIMIT/OFFSET) join the plan's cache key.  A statement the
shape analysis cannot align, and every SELECT under
``parameterised=False``, pins all of its literals: a plan with zero free
parameters, which serves one literal vector only.  DML is parsed and
run directly.

A shape is admitted to those caches on its *second* sighting.  The first
SELECT of a shape keeps nothing keyed to its statement: its plan,
subquery analysis, memo, tables and subquery plans live in a scope
dropped when the call returns.  A statement passed in as an AST
(:meth:`Executor.execute`, :meth:`Executor.execute_select`) runs the same
way.  Only the full-scan cache, at most one entry per table, is shared
with those runs, and every other cache is bounded.  A full-scan entry
is checked against its table's version when it is read, so a write
rescans only the table it touched, and the next statement after a
write drops the entries it made stale; the subquery memo is dropped
whenever any table's data moves.

Over a columnar table, a filter chain or plain-column projection directly
over a full scan runs column-at-a-time (:mod:`repro.engine.vector`).

``Executor(db, compiled=False)`` reproduces the original, fully
interpreted behaviour: the same runners over evaluator closures, which
resolve every column name when they evaluate it (through a :class:`Row`
over the layout and the tuple), no cache of any kind (it plans and
builds on every call), no index probes, and every subquery run per
outer row.  It is the reference the differential suites diff the
compiled path against.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import islice
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.engine.compile import CompiledExpr, ExpressionCompiler, Layout, Values, resolve_slot
from repro.engine.evaluator import ExpressionEvaluator
from repro.engine.parameterised import (
    ParameterisedPlan,
    analyze_statement,
    guard_key,
    ordinal_map,
    pin_all,
)
from repro.engine.plan import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    Planner,
    ProjectNode,
    ScanNode,
    SortNode,
    keyed_equalities,
)
from repro.engine.result import DmlResult, QueryResult
from repro.engine.vector import VectorExpressionCompiler, VectorUnsupported
from repro.errors import (
    EvaluationError,
    UnknownAttributeError,
    UnknownRelationError,
    UnsupportedQueryError,
)
from repro.oracle import resolve_compiled_default
from repro.sql import ast
from repro.sql.parser import parse_sql
from repro.sql.shape import is_mutation as _is_mutation_text, sql_shape
from repro.storage.database import Database
from repro.storage.row import Row
from repro.storage.api import TableStorage
from repro.utils.cache import SIGHTINGS_SIZE, LRUCache

_NO_ROWS: Tuple[Values, ...] = ()
_NO_KEYS: frozenset = frozenset()

#: How many memoized subquery results and hash-table rows to hold before
#: dropping them all.
_SUBQUERY_MEMO_LIMIT = 100_000

#: Rent-or-buy for decorrelated subqueries: each per-key evaluation is
#: charged its work in row units (see :class:`_Table`) plus this fixed
#: overhead for plan lookup, operator set-up and the result list.  A
#: one-row index probe evaluates in about 15 us where a build spends about
#: 2 us per row scanned and projected (CAST at 1 000 movies, 2-vCPU Xeon).
_PER_KEY_OVERHEAD = 8

#: The ordinal map outside a shape-plan run: every literal is baked.
_NO_ORDINALS: Dict[int, int] = {}

#: Bound on the shape-keyed caches (shape analyses, shape plans).
_SHAPE_CACHE_SIZE = 256

#: A plan node's runner: a generator function of the outer row's values
#: (None at the top level) over the node's rows, each a tuple in the
#: node's layout.  Calling one does no work until the generator is
#: advanced, so LIMIT never starts its child past ``offset + limit`` rows.
Runner = Callable[[Optional[Values]], Iterator[Values]]

#: A vector pass whose closures are not compiled yet.
_UNBUILT = object()


class _Lacking(str):
    """A layout name whose slot holds :data:`_ABSENT` in a row that lacks
    the column: the row of an aggregate's empty group (see
    :meth:`Executor._build_aggregate`)."""

    __slots__ = ()


#: The value of a lacking column.
_ABSENT: Any = object()


class _Output(tuple):
    """A projection's layout, each output name once in first-seen order,
    with ``columns``, the result header: each name as often as the select
    list gives it (see :meth:`Executor._projector`)."""

    def __new__(cls, names: List[str]) -> "_Output":
        output = super().__new__(cls, dict.fromkeys(names))
        output.columns = tuple(map(str, names))
        return output


class _SubqueryInfo:
    """The analysis of a subquery statement (see :func:`_analyze_subquery`).

    ``mode`` says how the subquery's rows are found for an outer row:

    * ``"table"``: key-correlated.  Every outer reference sits in a link
      ``inner_column = outer_column``; ``keys`` name the outer columns
      (``outer_refs``), ``key_columns`` are the inner columns a hash table
      is keyed on, and ``block_where`` the WHERE conjuncts of the block
      run to build it: the statement's own without its links.
    * ``"memo"``: any other subquery whose references are all qualified
      and unshadowed, memoized on the values of ``keys`` (the outer
      columns it reads; none for an uncorrelated subquery).
    * ``"row"``: unqualified or shadowed references, whose runtime
      resolution may differ from lexical scoping, memoized on the whole
      outer row.

    ``division`` is set when the subquery is a relational division
    (see :class:`_Division`).
    """

    __slots__ = ("mode", "keys", "outer_refs", "key_columns", "block_where", "runners", "division")

    def __init__(
        self,
        mode: str,
        keys: Tuple[str, ...] = (),
        outer_refs: Tuple[ast.ColumnRef, ...] = (),
        key_columns: Tuple[ast.ColumnRef, ...] = (),
        block_where: Tuple[ast.Expression, ...] = (),
    ) -> None:
        self.mode = mode
        self.keys = keys
        self.outer_refs = outer_refs
        self.key_columns = key_columns
        self.block_where = block_where
        self.runners: Optional[Tuple[Any, ...]] = None  # built at the block's first build
        self.division: Optional[_Division] = None


class _Division:
    """A block under [NOT] EXISTS whose outer references all sit in one
    nested [NOT] EXISTS over a key-correlated ``inner`` block, analysed
    as ``inner_info``.

    Q6 ("movies that have all genres") is the textbook case: for a movie,
    the middle block has rows iff some genre ``g1`` has no row in the
    inner block under (the movie's id, ``g1.genre``).  The inner block's
    table keys split into the positions fed by the outer row
    (``outer_positions``, read through ``outer_keys``) and those fed by the
    block's own rows (``own_positions``, read through ``own_columns``), so
    the block is decided once per outer key by comparing its own key
    values with the inner table's values under that outer key: subset
    when ``negated`` (inner NOT EXISTS), overlap otherwise.
    ``block_where`` is the block's WHERE without the nested connector.
    """

    __slots__ = (
        "inner",
        "inner_info",
        "negated",
        "outer_keys",
        "outer_positions",
        "own_positions",
        "own_columns",
        "block_where",
        "runners",
    )

    def __init__(
        self,
        inner: ast.SelectStatement,
        inner_info: _SubqueryInfo,
        negated: bool,
        outer_keys: Tuple[str, ...],
        outer_positions: Tuple[int, ...],
        own_positions: Tuple[int, ...],
        own_columns: Tuple[ast.ColumnRef, ...],
        block_where: Tuple[ast.Expression, ...],
    ) -> None:
        self.inner = inner
        self.inner_info = inner_info
        self.negated = negated
        self.outer_keys = outer_keys
        self.outer_positions = outer_positions
        self.own_positions = own_positions
        self.own_columns = own_columns
        self.block_where = block_where
        self.runners: Optional[Tuple[Any, ...]] = None  # built at the block's first build


#: One block's FROM entries: lowered binding -> (binding as written,
#: attribute names of its relation).
_Scope = Dict[str, Tuple[str, frozenset]]


class _Lexical:
    """Lexical scoping of one subquery's column references.

    A qualified reference binds to the innermost enclosing FROM entry of
    the same name (case-insensitively); one bound by no block inside the
    subquery is an outer reference.  The executor binds columns to the
    outer row's layout followed by the row's instead, so the two agree
    only when every inner reference is spelled exactly as the scanned rows
    spell it (an exact name always wins) and no name is bound twice along
    a nesting path.  ``plain`` turns False on anything else: an
    unqualified column, a rebound or case-variant binding, a column the
    relation lacks, an unknown relation, or an outer reference whose
    binding the subquery also introduces.
    """

    def __init__(self, schema: Any) -> None:
        self.schema = schema
        self.plain = True
        self.bound: set = set()

    def open(self, statement: ast.SelectStatement, scopes: List[_Scope]) -> List[_Scope]:
        """``scopes`` extended by ``statement``'s own FROM entries."""
        level: _Scope = {}
        for table in statement.from_tables:
            lowered = table.binding.lower()
            if lowered in level or any(lowered in scope for scope in scopes):
                self.plain = False
            try:
                attributes = frozenset(self.schema.relation(table.name).attribute_names)
            except UnknownRelationError:
                self.plain = False
                attributes = frozenset()
            level[lowered] = (table.binding, attributes)
            self.bound.add(lowered)
        return scopes + [level]

    def outer_refs(self, expression: ast.Node, scopes: List[_Scope]) -> List[ast.ColumnRef]:
        """The outer references in ``expression``, nested blocks included."""
        found: List[ast.ColumnRef] = []
        stack = [expression]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.ColumnRef):
                if node.table is None:
                    self.plain = False
                    continue
                lowered = node.table.lower()
                for scope in reversed(scopes):
                    entry = scope.get(lowered)
                    if entry is not None:
                        if node.table != entry[0] or node.column not in entry[1]:
                            self.plain = False
                        break
                else:
                    found.append(node)
            elif isinstance(node, ast.SelectStatement):
                inner = self.open(node, scopes)
                for child in node.children():
                    if not isinstance(child, ast.TableRef):
                        found.extend(self.outer_refs(child, inner))
            else:
                stack.extend(node.children())
        return found


def _analyze_subquery(statement: ast.SelectStatement, schema: Any) -> _SubqueryInfo:
    """How a subquery's rows depend on its outer row (see :class:`_SubqueryInfo`).

    The analysis reads no literal value, so it holds for every literal
    vector of a shape plan.
    """
    lexical = _Lexical(schema)
    scopes = lexical.open(statement, [])
    level = scopes[0]
    conjunct_refs = [
        (conjunct, lexical.outer_refs(conjunct, scopes))
        for conjunct in ast.conjuncts(statement.where)
    ]
    other_refs: List[ast.ColumnRef] = []
    for item in statement.select_items:
        other_refs.extend(lexical.outer_refs(item.expression, scopes))
    for clause in (*statement.group_by, statement.having, *statement.order_by):
        if clause is not None:
            other_refs.extend(lexical.outer_refs(clause, scopes))
    refs = other_refs + [ref for _, found in conjunct_refs for ref in found]
    if any(ref.table.lower() in lexical.bound for ref in refs):
        lexical.plain = False
    if not lexical.plain:
        return _SubqueryInfo("row")
    keys = tuple(sorted({ref.qualified for ref in refs}))
    if (
        not keys
        or other_refs
        or statement.having is not None
        or statement.order_by
        or statement.distinct
        or statement.limit is not None
        or statement.offset is not None
        or statement.has_aggregates()
    ):
        return _SubqueryInfo("memo", keys)

    # Key-correlated?  Group the links by outer column: a second link on
    # the same outer column becomes an inner equi-join of the block.
    groups: Dict[str, List[ast.ColumnRef]] = {}
    outer_columns: Dict[str, ast.ColumnRef] = {}
    rest: List[ast.Expression] = []
    for conjunct, found in conjunct_refs:
        if not found:
            rest.append(conjunct)
            continue
        link = _link(conjunct, found, level)
        if link is None:
            info = _SubqueryInfo("memo", keys)
            info.division = _division(statement, conjunct_refs, level, schema)
            return info
        inner, outer = link
        groups.setdefault(outer.qualified, []).append(inner)
        outer_columns.setdefault(outer.qualified, outer)
    joins: List[ast.Expression] = [
        ast.BinaryOp("=", inners[0], other)
        for inners in groups.values()
        for other in inners[1:]
    ]
    star = any(isinstance(item.expression, ast.Star) for item in statement.select_items)
    if not _connected(statement, rest + joins) or (joins and star):
        # Still a cross product, or extra joins that could reorder the
        # columns a star expands to: keep evaluating per outer key.
        return _SubqueryInfo("memo", keys)
    return _SubqueryInfo(
        "table",
        keys=tuple(groups),
        outer_refs=tuple(outer_columns.values()),
        key_columns=tuple(inners[0] for inners in groups.values()),
        block_where=tuple(rest + joins),
    )


def _link(
    conjunct: ast.Expression, refs: List[ast.ColumnRef], level: _Scope
) -> Optional[Tuple[ast.ColumnRef, ast.ColumnRef]]:
    """``(inner, outer)`` when ``conjunct`` is ``inner_column = outer_column``."""
    if len(refs) != 1 or not ast.is_join_condition(conjunct):
        return None
    outer = refs[0]
    for inner, other in ((conjunct.left, conjunct.right), (conjunct.right, conjunct.left)):
        if other is outer and inner.table is not None and inner.table.lower() in level:
            return inner, outer
    return None


def _division(
    statement: ast.SelectStatement,
    conjunct_refs: List[Tuple[ast.Expression, List[ast.ColumnRef]]],
    level: _Scope,
    schema: Any,
) -> Optional[_Division]:
    """The division plan of a block, or None when it is not one.

    The block's only outer references must sit in one top-level
    [NOT] EXISTS over a key-correlated block with at least one link to the
    outer row; its select list must not be able to fail (stars, columns,
    literals), since a decided block is never projected.
    """
    correlated = [(conjunct, found) for conjunct, found in conjunct_refs if found]
    if len(correlated) != 1 or not isinstance(correlated[0][0], ast.Exists):
        return None
    connector = correlated[0][0]
    if not all(
        isinstance(item.expression, (ast.Star, ast.ColumnRef, ast.Literal))
        for item in statement.select_items
    ):
        return None
    inner = _analyze_subquery(connector.subquery, schema)
    if inner.mode != "table":
        return None
    outer_positions = []
    own_positions = []
    for position, column in enumerate(inner.outer_refs):
        if column.table.lower() in level:
            own_positions.append(position)
        else:
            outer_positions.append(position)
    if not outer_positions:
        return None
    block_where = tuple(c for c, _ in conjunct_refs if c is not connector)
    if not _connected(statement, block_where):
        return None
    return _Division(
        inner=connector.subquery,
        inner_info=inner,
        negated=connector.negated,
        outer_keys=tuple(inner.keys[p] for p in outer_positions),
        outer_positions=tuple(outer_positions),
        own_positions=tuple(own_positions),
        own_columns=tuple(inner.outer_refs[p] for p in own_positions),
        block_where=block_where,
    )


def _connected(statement: ast.SelectStatement, conjuncts: Iterable[ast.Expression]) -> bool:
    """Whether equi-joins among ``conjuncts`` connect every FROM entry of ``statement``."""
    bindings = {table.binding.lower() for table in statement.from_tables}
    if len(bindings) < 2:
        return True
    parent = {binding: binding for binding in bindings}

    def root(binding: str) -> str:
        while parent[binding] != binding:
            binding = parent[binding]
        return binding

    for conjunct in conjuncts:
        if not ast.is_join_condition(conjunct):
            continue
        left, right = conjunct.left.table, conjunct.right.table
        if left is None or right is None:
            continue
        left, right = left.lower(), right.lower()
        if left in bindings and right in bindings:
            parent[root(left)] = root(right)
    return len({root(binding) for binding in bindings}) == 1


class _Table:
    """Rent-or-buy state of one decorrelated subquery under one parameter vector.

    Each new outer key is evaluated on its own until that has ``spent``
    what a build would cost; the next one builds.  A per-key evaluation
    is charged the rows its scans and index probes read (``read``, nested
    subquery lookups one each) and the rows it derived from them
    (``derived``: pairs its nested-loop joins examined, rows it returned),
    plus a fixed overhead.  A build reads ``cost`` rows, the rows of the
    FROM tables, and derives from them in the proportion the per-key
    evaluations did: a block whose join output grows with the square of
    each key's rows (``e1.title = e.title and e2.title = e.title and
    e1.id <> e2.id``) costs a build that much more.  ``built`` is the
    hash table (or the division's sets); ``failed`` marks a build that
    raised, which leaves the statement per key.
    """

    __slots__ = ("spent", "cost", "read", "derived", "built", "failed")

    def __init__(self, cost: int) -> None:
        self.spent = 0
        self.cost = cost
        self.read = 0
        self.derived = 0
        self.built: Any = None
        self.failed = False

    def charge(self, read: int, derived: int) -> None:
        """Account for one per-key evaluation."""
        self.read += read
        self.derived += derived
        self.spent += read + derived + _PER_KEY_OVERHEAD

    def pays(self) -> bool:
        """Whether per-key evaluation has now cost what a build would."""
        if self.failed:
            return False
        estimate = self.cost
        if self.read:
            estimate += self.derived * self.cost // self.read
        return self.spent > estimate


class _SubqueryState:
    """Data-dependent state of one subquery statement: memo and tables."""

    __slots__ = ("statement", "memo", "tables")

    def __init__(self, statement: ast.SelectStatement) -> None:
        self.statement = statement
        self.memo: Dict[Any, Any] = {}  # (params, outer values) -> rows
        self.tables: Dict[Tuple[Any, ...], _Table] = {}  # params -> table


class _Subquery:
    """A subquery bound to the layout of the rows its connector evaluates.

    Called with an outer row's values it returns the subquery's rows;
    EXISTS connectors ask ``exists``, which can decide a division without
    producing rows.  ``info`` is the statement's analysis, made when the
    connector is bound.  ``outer_keys`` and ``division_keys`` are the
    slots of ``info.keys`` and of the division's outer keys in the
    layout, None when one is missing (or there is no division).
    ``runs`` holds the statement's root runners without and with the
    outer row, built at their first call and kept.
    """

    __slots__ = ("executor", "statement", "layout", "info", "outer_keys", "division_keys", "runs")

    def __init__(
        self, executor: "Executor", statement: ast.SelectStatement, layout: Layout
    ) -> None:
        self.executor = executor
        self.statement = statement
        self.layout = layout
        self.info = info = _analyze_subquery(statement, executor.database.schema)
        self.outer_keys = _slots(layout, info.keys)
        division = info.division
        self.division_keys = None if division is None else _slots(layout, division.outer_keys)
        self.runs: List[Optional[Tuple[Runner, bool]]] = [None, None]

    def __call__(self, values: Values) -> List[Values]:
        return self.executor._run_subquery(self, values)

    def exists(self, values: Values) -> bool:
        return self.executor._subquery_exists(self, values)

    def rows(self, values: Optional[Values]) -> List[Values]:
        """The statement's rows for one outer row (None: run without one)."""
        correlated = values is not None
        if self.runs[correlated] is None:
            run, layout = self.executor._plan_select(
                self.statement, self.layout if correlated else None
            )
            self.runs[correlated] = (run, _lacking(layout))
        run, lacking = self.runs[correlated]
        if lacking:
            return [tuple(v for v in row if v is not _ABSENT) for row in run(values)]
        return list(run(values))


def _slots(layout: Layout, names: Tuple[str, ...]) -> Optional[Tuple[int, ...]]:
    """The slots of ``names`` in ``layout``; None if one is missing."""
    slots = tuple(resolve_slot(layout, name) for name in names)
    return None if None in slots else slots


class _StatementScope:
    """State keyed to statements: subquery memo and tables.

    The executor keeps one shared scope for the statements of its shape
    plans; a shape's first sighting, and a statement passed in as an AST,
    runs in a private scope that is dropped with it.  Every map is keyed
    by statement identity and holds the statement itself, so an ``id`` is
    never reused while its entry lives.
    ``memo_entries`` counts memoized results plus hash-table rows.
    """

    __slots__ = ("memo", "memo_entries")

    def __init__(self) -> None:
        self.memo: Dict[int, _SubqueryState] = {}
        self.memo_entries = 0

    def clear_memo(self) -> None:
        self.memo.clear()
        self.memo_entries = 0


class Executor:
    """Execute SQL statements against an in-memory database."""

    def __init__(
        self,
        database: Database,
        compiled: Optional[bool] = None,
        parameterised: Optional[bool] = None,
    ) -> None:
        self.database = database
        self.planner = Planner(database.schema)
        # Both flags default on, unless REPRO_ORACLE forces the interpreted
        # defaults for the whole process (explicit arguments always win).
        # ``compiled`` turns on everything beyond the interpreted oracle:
        # closures, caches, index probes, subquery tables and memo.
        self.compiled = resolve_compiled_default(compiled)
        # ``parameterised`` only chooses which literals of a shape plan are
        # free parameters: off, every literal is pinned.
        self.parameterised = resolve_compiled_default(parameterised) and self.compiled
        self._evaluator = ExpressionEvaluator(subquery_runner=self._interpreted_subquery)
        # A shape plan's closures read ``_params[0]``, the literal vector of
        # the query being served, through the compiler's ordinal map.
        self._params: List[Tuple[Any, ...]] = [()]
        self._compiler = ExpressionCompiler(
            subquery_runner=lambda statement, layout: _Subquery(self, statement, layout),
            params=self._params,
        )
        self._shape_infos: LRUCache = LRUCache(_SHAPE_CACHE_SIZE)
        self._shape_plans: LRUCache = LRUCache(_SHAPE_CACHE_SIZE)
        # Second-sighting admission: hashes of the shapes seen so far.
        self._sightings: LRUCache = LRUCache(SIGHTINGS_SIZE)
        self.shape_hits = 0
        self.shape_misses = 0
        self.shape_deferred = 0
        self.shape_fallbacks = 0
        # Vectorized scan counters: how many filter/projection nodes ran
        # column-at-a-time over columnar arrays, and how many started to
        # and handed back to the row path mid-run (data-dependent
        # evaluation error — the row path re-raises it with the oracle's
        # exact short-circuit semantics).
        self.vector_scans = 0
        self.vector_fallbacks = 0
        # The scan cache (table name -> (version, row tuples)) and the
        # subquery memo depend on table contents: each scan entry is checked
        # against its table's version when read, and before every top-level
        # statement a move of Database.data_version drops the memo and the
        # stale scan entries (so even writes bypassing the executor are seen).
        self._scan_cache: Dict[str, Tuple[int, List[Values]]] = {}
        self._shared_scope = _StatementScope()
        self._scope = self._shared_scope
        self.subquery_hits = 0
        self.subquery_misses = 0
        self.subquery_tables = 0
        # Work in row units, for the rent-or-buy rule (see _Table): rows
        # produced by scans and index probes plus one per subquery lookup,
        # and pairs examined by nested-loop joins.
        self._rows_read = 0
        self._rows_joined = 0
        self._data_version = database.data_version

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def execute_sql(self, sql: str):
        """Parse and execute ``sql``; returns a QueryResult or DmlResult.

        In compiled mode a SELECT text runs through its shape plan: a text
        whose shape (and guard vector) was executed before skips parse,
        plan and compile entirely and runs the shared plan with its
        literals bound as parameters.  DML, and texts that do not lex,
        are parsed and run directly.
        """
        if self.compiled:
            if not _is_mutation_text(sql):
                shaped = sql_shape(sql)
                if shaped is not None:
                    return self._execute_shape(sql, shaped[0], shaped[1])
            self.shape_fallbacks += 1
        return self.execute(parse_sql(sql))

    def execute(self, statement: ast.Statement):
        """Execute a parsed statement."""
        if isinstance(statement, ast.SelectStatement):
            return self.execute_select(statement)
        if isinstance(statement, ast.InsertStatement):
            return self._execute_insert(statement)
        if isinstance(statement, ast.UpdateStatement):
            return self._execute_update(statement)
        if isinstance(statement, ast.DeleteStatement):
            return self._execute_delete(statement)
        raise UnsupportedQueryError(
            f"statement type {type(statement).__name__} is not executable"
        )

    def execute_select(self, statement: ast.SelectStatement) -> QueryResult:
        """Execute a parsed SELECT.

        The statement runs like a shape's first sighting: its plan,
        subquery plans, memo and tables live in a private scope dropped
        on return (the shared data caches are validated first).
        """
        self._validate_caches()
        scope, self._scope = self._scope, _StatementScope()
        try:
            run, layout = self._plan_select(statement, None)
            rows = _result_rows(layout, run(None))
        finally:
            self._scope = scope
        return QueryResult(columns=layout.columns, rows=rows)

    def explain(self, statement: ast.SelectStatement) -> str:
        """Return the indented logical plan for a SELECT statement."""
        return self.planner.plan(statement).explain()

    @property
    def cache_stats(self) -> Dict[str, Any]:
        """Observability: hit/miss counters for every cache layer.

        ``shape_plans`` covers ``execute_sql``: ``hits`` are executions
        served by a shape plan with only a rebind, ``misses`` are
        executions with no shape plan to serve them — ``deferred`` of them
        first sightings of a shape, run once without caching anything, the
        rest second sightings (or new guard classes) that compiled a shape
        plan — and ``fallbacks`` are DML and texts that do not lex, parsed
        and run directly.  Hits, misses and fallbacks sum to the
        executions of a compiled executor.

        ``subquery`` counts subquery lookups: ``hits`` were answered from
        an existing hash table or memo entry, ``misses`` built a table or
        evaluated the subquery for one outer key, and ``tables`` counts
        the hash tables built (relational-division sets included).
        ``entries`` is the memo rows plus table rows held for admitted
        statements.
        """
        return {
            "shape_plans": {
                "hits": self.shape_hits,
                "misses": self.shape_misses,
                "deferred": self.shape_deferred,
                "fallbacks": self.shape_fallbacks,
                "entries": len(self._shape_plans),
                "shapes": len(self._shape_infos),
            },
            "subquery": {
                "hits": self.subquery_hits,
                "misses": self.subquery_misses,
                "tables": self.subquery_tables,
                "entries": self._shared_scope.memo_entries,
            },
            "scan_tables": len(self._scan_cache),
        }

    # ------------------------------------------------------------------
    # Shape plans
    # ------------------------------------------------------------------

    def _execute_shape(self, sql: str, shape, literals) -> QueryResult:
        """Execute the SELECT ``sql`` through the shape-plan cache.

        A shape's first sighting runs once in a private scope and leaves
        nothing but its sighting behind; a later text of the shape with
        no plan for its guard vector compiles one.
        """
        info = self._shape_infos.get(shape, record_miss=False)
        entry: Optional[ParameterisedPlan] = None
        if info is not None:
            entry = self._shape_plans.get((shape, guard_key(literals, info)))
        if entry is None:
            self.shape_misses += 1
            if info is None:
                digest = hash(shape)
                if digest not in self._sightings:
                    self._sightings.put(digest, True)
                    self.shape_deferred += 1
                    return self.execute_select(parse_sql(sql))
            statement = parse_sql(sql)
            if not self._relations_known(statement):
                # A plan over a missing relation cannot answer: run the
                # text unkept, so each sighting raises the scan's error.
                return self.execute_select(statement)
            entry = self._compile_shape_plan(statement, shape, literals, info)
        else:
            self.shape_hits += 1
        self._validate_caches()
        self._params[0] = literals
        self._compiler.ordinals = entry.ordinals
        try:
            if entry.run is None:
                entry.run = self._build(entry.plan.root, None)
            run, layout = entry.run
            rows = _result_rows(layout, run(None))
        finally:
            self._compiler.ordinals = _NO_ORDINALS
            self._params[0] = ()
        return QueryResult(columns=layout.columns, rows=rows)

    def _relations_known(self, statement: ast.SelectStatement) -> bool:
        """Whether every FROM of ``statement``, nested blocks included, names
        a relation of the schema."""
        has_relation = self.database.schema.has_relation
        return all(
            has_relation(node.name)
            for node in statement.walk()
            if isinstance(node, ast.TableRef)
        )

    def _compile_shape_plan(
        self, statement: ast.SelectStatement, shape, literals, info
    ) -> ParameterisedPlan:
        """Plan ``statement`` as the canonical statement of its guard class.

        Its own literal values are what the pinned guard positions bake
        into the plan.  With ``parameterised`` off, or when the literal
        walk cannot be aligned with the lexer's literal vector (see
        :func:`repro.engine.parameterised.analyze_statement`), every
        literal is pinned.
        """
        ordinals = None
        if self.parameterised:
            if info is None:
                info = analyze_statement(statement, literals)
            if info is not None:
                ordinals = ordinal_map(statement, literals, info)
        if ordinals is None:
            info, ordinals = pin_all(literals), {}
        self._shape_infos.put(shape, info)
        entry = ParameterisedPlan(statement, self.planner.plan(statement), ordinals)
        self._shape_plans.put((shape, guard_key(literals, info)), entry)
        return entry

    # ------------------------------------------------------------------
    # Planning and cache upkeep
    # ------------------------------------------------------------------

    def _plan_select(
        self, statement: ast.SelectStatement, outer: Optional[Layout]
    ) -> Tuple[Runner, Layout]:
        """Plan ``statement`` and build its runners for the outer layout ``outer``."""
        return self._build(self.planner.plan(statement).root, outer)

    def _validate_caches(self) -> None:
        """Drop what a write made stale once any table's data has moved.

        The memo does not record which tables it read, so any write
        clears it.  Scan-cache entries record their table's version:
        within one database a table's version only rises, so an entry
        whose version differs can never be served again and is dropped
        now rather than kept resident until its table is read again.
        """
        version = self.database.data_version
        if version != self._data_version:
            self._data_version = version
            self._shared_scope.clear_memo()
            cache, table = self._scan_cache, self.database.table
            self._scan_cache = {n: e for n, e in cache.items() if e[0] == table(n).version}

    def invalidate_caches(self) -> None:
        """Drop every cache, including the data-independent ones.

        Writes need none of this (plans and compiled closures do not
        depend on table contents); this is the blunt instrument for
        callers that want a pristine executor.
        """
        self._shape_infos.clear()
        self._shape_plans.clear()
        self._sightings.clear()
        self._scan_cache.clear()
        self._shared_scope = self._scope = _StatementScope()
        self._data_version = self.database.data_version

    # ------------------------------------------------------------------
    # Expression access (compiled or interpreted)
    # ------------------------------------------------------------------

    def _expr_fn(self, expression: ast.Expression, layout: Layout) -> CompiledExpr:
        # Runners are built while a plan first runs, so the nodes of a
        # shape plan (and of its subqueries) compile under that plan's
        # ordinal map.
        evaluator = self._evaluator
        interpreted = lambda values: evaluator.evaluate(expression, _as_row(layout, values))
        if not self.compiled:
            return interpreted
        return _unless_lacking(self._compiler.compile(expression, layout), interpreted, layout)

    def _pred_fn(
        self, predicate: Optional[ast.Expression], layout: Layout
    ) -> Callable[[Values], bool]:
        evaluator = self._evaluator
        interpreted = lambda values: evaluator.matches(predicate, _as_row(layout, values))
        if not self.compiled:
            return interpreted
        compiled = self._compiler.compile_predicate(predicate, layout)
        return _unless_lacking(compiled, interpreted, layout)

    # ------------------------------------------------------------------
    # Building runners
    # ------------------------------------------------------------------

    def _build(
        self, node: PlanNode, outer: Optional[Layout], vector: bool = True
    ) -> Tuple[Runner, Layout]:
        """``node``'s runner (see :data:`Runner`) and its rows' layout, for
        an outer row of layout ``outer`` (None at the top level), which an
        expression reads before its own row.  What depends on the data or on
        a table existing waits for the run: the table lookups, the empty-table
        check before a probe, NULL probe values and the vector pass's checks.
        ``vector`` False builds a filter chain without its vector passes: the
        row-at-a-time chain a vector pass falls back to.
        """
        if isinstance(node, ScanNode):
            return self._build_scan(node, outer)
        if isinstance(node, FilterNode):
            child, layout = self._build(node.child, outer, vector)
            run = _filter(self._pred_fn(node.predicate, _scoped(outer, layout)), child)
        elif isinstance(node, ProjectNode):
            child, child_layout = self._build(node.child, outer, vector)
            project, layout = self._projector(node, child_layout, outer)
            run = _project(project, child)
        elif isinstance(node, JoinNode):
            return self._build_join(node, outer)
        elif isinstance(node, AggregateNode):
            return self._build_aggregate(node, outer)
        elif isinstance(node, DistinctNode):
            child, layout = self._build(node.child, outer)
            return _distinct(child), layout
        elif isinstance(node, SortNode):
            return self._build_sort(node, outer)
        elif isinstance(node, LimitNode):
            child, layout = self._build(node.child, outer)
            return _limit(node.limit, node.offset, child), layout
        else:  # pragma: no cover - defensive
            raise UnsupportedQueryError(f"unknown plan node {type(node).__name__}")
        if vector and outer is None and self.compiled:
            run = self._vectorized(node, run)
        return run, layout

    # ------------------------------------------------------------------
    # Scans (index-backed when the planner pushed equality conjuncts)
    # ------------------------------------------------------------------

    def _scan_layout(self, table_name: str, binding: str) -> Layout:
        """``binding.attribute`` per attribute, in declaration order (a stored
        row's); empty for an unknown table, whose scan fails when run."""
        try:
            relation = self.database.schema.relation(table_name)
        except UnknownRelationError:
            return ()
        return tuple(f"{binding}.{name}" for name in relation.attribute_names)

    def _build_scan(self, node: ScanNode, outer: Optional[Layout]) -> Tuple[Runner, Layout]:
        if not node.table_name:
            return _empty_row, ()  # FROM-less SELECT: a single empty row
        name, columns = node.table_name, node.eq_columns
        layout = self._scan_layout(name, node.binding)
        value_fns = [self._expr_fn(value, outer or ()) for value in node.eq_values]
        # Applied as plain filters when no probe runs (interpreted mode, an
        # empty table, or a pushed column the relation lacks).
        scoped = _scoped(outer, layout)
        predicates = [self._pred_fn(predicate, scoped) for predicate in node.pushed_filters]
        probes = self.compiled and bool(columns)

        def run(outer_values: Optional[Values]) -> Iterator[Values]:
            table = self.database.table(name)
            if probes and table.row_count:
                context = outer_values if outer_values is not None else ()
                rowids = self._probe(table, columns, value_fns, context)
                if rowids is not None:
                    self._rows_read += len(rowids)
                    for rowid in rowids:
                        yield tuple(table.row_by_id(rowid).raw.values())
                    return
            rows = self._scan_rows(table)
            self._rows_read += len(rows)
            if not predicates:
                yield from rows
                return
            for row in rows:
                values = row if outer_values is None else outer_values + row
                if all(predicate(values) for predicate in predicates):
                    yield row

        return run, layout

    def _probe(
        self,
        table: TableStorage,
        columns: Tuple[str, ...],
        value_fns: Iterable[CompiledExpr],
        context: Values,
    ) -> Optional[Tuple[int, ...]]:
        """Sorted rowids whose ``columns`` equal the probe values.

        None when the table lacks one of ``columns`` (the caller scans);
        a NULL probe value matches no row.
        """
        try:
            index = table.ensure_index(columns)
        except UnknownAttributeError:
            return None
        values = tuple(fn(context) for fn in value_fns)
        if any(v is None for v in values):
            return ()  # `col = NULL` never matches
        try:
            return index.lookup(values)
        except TypeError:
            return ()  # unhashable probe value can never equal a stored one

    def _scan_rows(self, table: TableStorage) -> List[Values]:
        """A full scan's rows as tuples, cached per table version."""
        if not self.compiled:
            return [tuple(row.raw.values()) for row in table.rows()]
        entry = self._scan_cache.get(table.name)
        if entry is not None and entry[0] == table.version:
            return entry[1]
        rows = [tuple(row.raw.values()) for row in table.rows()]
        self._scan_cache[table.name] = (table.version, rows)
        return rows

    # ------------------------------------------------------------------
    # Vectorized scans (columnar engine, compiled mode only)
    # ------------------------------------------------------------------

    def _vectorized(self, node: PlanNode, row_path: Runner) -> Runner:
        """``row_path`` behind a column-at-a-time pass, where one can run.

        A pass runs a Filter chain directly over a full scan, or a Project
        over one (see :func:`_filter_chain`), with no outer row, in compiled
        mode, over a table exposing columnar arrays, when the expressions
        fit the fused subset of :mod:`repro.engine.vector`; its closures are
        compiled at the first such run (a row-oriented table declines before
        anything is compiled).  Its rows are the row path's, in the same
        order.  A data-dependent evaluation error falls back once: the chain
        re-runs row at a time, with no vector pass, and raises the oracle's
        exact error (the vector pass may have met another failing row first).
        """
        chain = _filter_chain(node.child if isinstance(node, ProjectNode) else node)
        if chain is None:
            return row_path
        scan, predicates = chain
        ops: Any = _UNBUILT
        fallback: Optional[Runner] = None

        def run(outer_values: None) -> Iterator[Values]:
            nonlocal ops, fallback
            if ops is not None:
                table = self.database.table(scan.table_name)
                if ops is _UNBUILT:
                    ops = self._vector_ops(node, scan.binding, predicates, table)
                arrays = table.columnar_arrays()
                if ops is not None and arrays is not None:
                    selection_fn, build_fn = ops
                    count = table.row_count
                    try:
                        rows = build_fn(arrays, selection_fn(arrays, count))
                    except (EvaluationError, TypeError, ZeroDivisionError):
                        self.vector_fallbacks += 1
                        if fallback is None:
                            fallback = self._build(node, None, vector=False)[0]
                        yield from fallback(None)
                        return
                    self.vector_scans += 1
                    self._rows_read += count
                    yield from rows
                    return
            yield from row_path(None)

        return run

    def _vector_ops(
        self,
        node: PlanNode,
        binding: str,
        predicates: List[ast.Expression],
        table: TableStorage,
    ) -> Optional[Tuple[Any, Any]]:
        """Compile (selection, builder) for a chain over ``table``, or None."""
        if table.columnar_arrays() is None:
            return None
        compiler = VectorExpressionCompiler(
            table.relation, binding, self._params, self._compiler.ordinals
        )
        try:
            selection_fn = compiler.compile_conjunction(predicates)
            if isinstance(node, FilterNode):
                return selection_fn, compiler.compile_scan_rows()
            # One expression per output column: the last item of its name.
            last = {item.output_name: item.expression for item in node.items}
            return selection_fn, compiler.compile_projection(list(last.values()))
        except VectorUnsupported:
            return None

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def _build_join(self, node: JoinNode, outer: Optional[Layout]) -> Tuple[Runner, Layout]:
        """A join on the planner's key: an index join, a hash join or, with
        no key, a nested loop; each yields its matches in outer-row order,
        each outer row's in inner input order, as the two rows' values
        concatenated."""
        key = node.key
        conditions = [c for c in node.equi_conditions if key is None or c is not key[0]]
        conditions += node.other_conditions
        left, left_layout = self._build(node.left, outer)
        if node.index and self.compiled:
            return self._build_index_join(node, outer, left, left_layout, conditions)
        right, right_layout = self._build(node.right, outer)
        layout = left_layout + right_layout
        matchers = [self._pred_fn(c, _scoped(outer, layout)) for c in conditions]
        if key is not None:
            left_slot = resolve_slot(left_layout, key[1].qualified)
            right_slot = resolve_slot(right_layout, key[2].qualified)

        def run(outer_values: Optional[Values]) -> Iterator[Values]:
            left_rows = list(left(outer_values))
            right_rows = list(right(outer_values))
            if key is None:
                self._rows_joined += len(left_rows) * len(right_rows)
                for left_row in left_rows:
                    for right_row in right_rows:
                        combined = left_row + right_row
                        if _join_matches(combined, matchers, outer_values):
                            yield combined
                return
            if left_slot is None or right_slot is None:
                return  # a key neither side's rows resolve matches nothing
            buckets: Dict[Any, List[Values]] = {}
            for right_row in right_rows:
                value = right_row[right_slot]
                if value is not None:
                    buckets.setdefault(value, []).append(right_row)
            for left_row in left_rows:
                value = left_row[left_slot]
                if value is None:
                    continue
                for right_row in buckets.get(value, ()):
                    combined = left_row + right_row
                    if _join_matches(combined, matchers, outer_values):
                        yield combined

        return run, layout

    def _build_index_join(
        self,
        node: JoinNode,
        outer: Optional[Layout],
        left: Runner,
        left_layout: Layout,
        conditions: List[ast.Expression],
    ) -> Tuple[Runner, Layout]:
        """An index join: one hash-index lookup on the inner table per outer row.

        Yields what the hash join over the same tree yields, in the same
        order: each outer row's matches in ascending rowid order, which is
        a scan's order.  As the inner scan's probe would, the values of its
        pushed conjuncts are evaluated once when the table has rows (a NULL
        one matches nothing) and compared with each candidate's stored
        columns; the other join conditions are tested on the joined row.
        """
        _, outer_column, inner = node.key
        scan = node.right
        outer_key = self._expr_fn(outer_column, left_layout)
        relation = self.database.schema.relation(scan.table_name)
        names = relation.attribute_names
        pushed_slots = tuple(
            names.index(relation.attribute(column).name) for column in scan.eq_columns
        )
        value_fns = [self._expr_fn(value, outer or ()) for value in scan.eq_values]
        layout = left_layout + self._scan_layout(scan.table_name, scan.binding)
        matchers = [self._pred_fn(c, _scoped(outer, layout)) for c in conditions]
        name, column = scan.table_name, inner.column

        def run(outer_values: Optional[Values]) -> Iterator[Values]:
            left_rows = list(left(outer_values))
            table = self.database.table(name)
            if not table.row_count:
                return
            pushed: Tuple[Tuple[int, Any], ...] = ()
            if pushed_slots:
                context = outer_values if outer_values is not None else ()
                wanted = [fn(context) for fn in value_fns]
                if any(value is None for value in wanted):
                    return  # `col = NULL` never matches
                pushed = tuple(zip(pushed_slots, wanted))
            index = table.ensure_index((column,))
            for left_row in left_rows:
                key = outer_key(left_row)
                if key is None:
                    continue
                try:
                    rowids = index.lookup((key,))
                except TypeError:
                    continue  # an unhashable key equals no stored one
                self._rows_read += len(rowids)
                for rowid in rowids:
                    stored = tuple(table.row_by_id(rowid).raw.values())
                    if pushed and not all(stored[slot] == value for slot, value in pushed):
                        continue
                    combined = left_row + stored
                    if _join_matches(combined, matchers, outer_values):
                        yield combined

        return run, layout

    # ------------------------------------------------------------------
    # Grouping, projection and ordering
    # ------------------------------------------------------------------

    def _build_aggregate(
        self, node: AggregateNode, outer: Optional[Layout]
    ) -> Tuple[Runner, Layout]:
        """Group rows; a group's row is its first member's columns, then the
        group keys, then the aggregates under their SQL texts.  The one group
        of an aggregate without GROUP BY over no rows lacks the input's
        columns (:class:`_Lacking` names, :data:`_ABSENT` values)."""
        child, child_layout = self._build(node.child, outer)
        scoped = _scoped(outer, child_layout)
        group_by = node.group_by
        group_fns = [self._expr_fn(expression, scoped) for expression in group_by]
        specs = []
        for aggregate in node.aggregates:
            name = aggregate.name.upper()
            count_star = name == "COUNT" and (
                not aggregate.args or isinstance(aggregate.args[0], ast.Star)
            )
            arg_fn = (
                self._expr_fn(aggregate.args[0], scoped)
                if aggregate.args and not count_star
                else None
            )
            specs.append((str(aggregate), name, arg_fn, aggregate.distinct, count_star))
        names = list(child_layout) if group_by else list(map(_Lacking, child_layout))
        slots: Dict[str, int] = {}
        for name in names + [_expression_key(e) for e in group_by] + [s[0] for s in specs]:
            slots.setdefault(name, len(slots))
        group_slots = [slots[_expression_key(e)] for e in group_by]
        aggregate_slots = [slots[spec[0]] for spec in specs]
        padding = [None] * (len(slots) - len(child_layout))
        missing = [_ABSENT] * len(child_layout)

        def run(outer_values: Optional[Values]) -> Iterator[Values]:
            source_rows = list(child(outer_values))
            groups: Dict[Tuple[Any, ...], List[Values]] = {}
            if group_by:
                for row in source_rows:
                    values = row if outer_values is None else outer_values + row
                    key = tuple(fn(values) for fn in group_fns)
                    bucket = groups.get(key)
                    if bucket is None:
                        groups[key] = [row]
                    else:
                        bucket.append(row)
            else:
                groups[()] = source_rows
            for key, members in groups.items():
                output = list(members[0] if members else missing) + padding
                for slot, value in zip(group_slots, key):
                    output[slot] = value
                for slot, spec in zip(aggregate_slots, specs):
                    output[slot] = _compute_aggregate(spec, members, outer_values)
                yield tuple(output)

        return run, tuple(slots)

    def _projector(
        self, node: ProjectNode, layout: Layout, outer: Optional[Layout]
    ) -> Tuple[Callable[[Values], Values], _Output]:
        """The select list over a row's scoped values, and its layout: each
        output name once, first-seen order, its last item's value.  A star
        expands to the columns of the FROM tables it names, in FROM order,
        each table's in declaration order, read from the row, not the outer
        row; the result header takes a star's names from here."""
        offset = len(outer or ())
        scoped = _scoped(outer, layout)
        slots = {name: slot for slot, name in enumerate(layout)}
        names: List[str] = []
        fns: List[CompiledExpr] = []
        for item in node.items:
            expression = item.expression
            if not isinstance(expression, ast.Star):
                names.append(item.output_name)
                fns.append(self._expr_fn(expression, scoped))
                continue
            qualifier = expression.table
            for table in node.from_tables:
                if qualifier is None or table.binding.lower() == qualifier.lower():
                    for name in self._scan_layout(table.name, table.binding):
                        slot = slots[name]
                        names.append(layout[slot])
                        fns.append(itemgetter(offset + slot))
        output = _Output(names)
        if len(output) == len(fns):
            return (lambda values: tuple([fn(values) for fn in fns])), output
        picks = tuple({name: index for index, name in enumerate(names)}.values())

        def project(values: Values) -> Values:
            computed = [fn(values) for fn in fns]
            return tuple([computed[index] for index in picks])

        return project, output

    def _build_sort(self, node: SortNode, outer: Optional[Layout]) -> Tuple[Runner, Layout]:
        child, layout = self._build(node.child, outer)
        scoped = _scoped(outer, layout)
        order = [
            (
                item.expression,
                resolve_slot(layout, str(item.expression)),
                self._expr_fn(item.expression, scoped),
                item.descending,
            )
            for item in node.order_by
        ]
        aliases = {
            item.alias.lower(): self._expr_fn(item.expression, scoped)
            for item in node.select_items
            if item.alias
        }

        def run(outer_values: Optional[Values]) -> Iterator[Values]:
            def sort_key(row: Values) -> Tuple:
                values = row if outer_values is None else outer_values + row
                return tuple(
                    _OrderKey(_order_value(expression, slot, fn, aliases, row, values), descending)
                    for expression, slot, fn, descending in order
                )

            yield from sorted(child(outer_values), key=sort_key)

        return run, layout

    # ------------------------------------------------------------------
    # Subqueries: hash tables for key-correlated ones, a memo for the rest
    # ------------------------------------------------------------------

    def _interpreted_subquery(self, statement: ast.SelectStatement, row: Row) -> List[Row]:
        """The evaluator's subquery runner: planned, built and run for ``row``."""
        run, layout = self._plan_select(statement, tuple(row.raw))
        return [_as_row(layout, values) for values in run(tuple(row.raw.values()))]

    def _run_subquery(self, subquery: _Subquery, outer: Optional[Values]) -> List[Values]:
        """A compiled connector's rows of ``subquery`` for the outer row ``outer``."""
        self._rows_read += 1
        info = subquery.info
        params = self._params[0]
        # Memo keys carry the outer values' types: 1 and 1.0 are equal
        # keys, but a subquery that reads them returns different values.
        if info.mode == "row":
            row = dict(zip(subquery.layout, outer))  # each name once, as a merged row
            key: Any = (params, tuple(row.items()), tuple(map(type, row.values())))
        else:
            slots = subquery.outer_keys
            if slots is None:
                # The correlation cannot be satisfied by this outer row;
                # run it and let execution surface the usual error.
                return subquery.rows(outer)
            values = tuple(_freeze(outer[slot]) for slot in slots)
            if info.mode == "table":
                return self._run_keyed(subquery, params, values, outer)
            if not values:
                outer = None  # uncorrelated: run once, without an outer row
            key = (params, values, tuple(map(type, values)))
        state = self._subquery_state(subquery.statement)
        try:
            cached = state.memo.get(key)
        except TypeError:  # unhashable outer value: skip the memo
            return subquery.rows(outer)
        if cached is not None:
            self.subquery_hits += 1
            return cached
        self.subquery_misses += 1
        rows = subquery.rows(outer)
        self._remember(state, key, rows)
        return rows

    def _run_keyed(
        self, subquery: _Subquery, params: Tuple[Any, ...], values: Tuple[Any, ...], outer: Values
    ) -> List[Values]:
        """Rows of a key-correlated subquery: per key until a table pays."""
        statement = subquery.statement
        state = self._subquery_state(statement)
        table = state.tables.get(params)
        try:
            if table is not None and table.built is not None:
                rows = table.built.get(values, _NO_ROWS)
                self.subquery_hits += 1
                return rows
            key = (params, values)
            cached = state.memo.get(key)
        except TypeError:  # unhashable outer value: evaluate it on its own
            return subquery.rows(outer)
        if cached is not None:
            self.subquery_hits += 1
            return cached
        self.subquery_misses += 1
        if table is None:
            table = state.tables[params] = _Table(self._rows_in(statement))
        if table.pays():
            built = self._build_table(state, subquery.info, params)
            if built is not None:
                return built.get(values, _NO_ROWS)
        read, joined = self._rows_read, self._rows_joined
        rows = subquery.rows(outer)
        table.charge(self._rows_read - read, self._rows_joined - joined + len(rows))
        self._remember(state, key, rows)
        return rows

    def _subquery_exists(self, subquery: _Subquery, outer: Values) -> bool:
        """Whether ``subquery`` has rows for the outer row ``outer`` (EXISTS connectors)."""
        division = subquery.info.division
        if division is not None:
            found = self._divide(subquery, division, outer)
            if found is not None:
                return found
        return len(self._run_subquery(subquery, outer)) > 0

    def _divide(self, subquery: _Subquery, division: _Division, outer: Values) -> Optional[bool]:
        """Decide a division-shaped block for the outer row ``outer``, or None to run it.

        Evaluated per outer row (through the memo) until that has cost
        what a build would; then the inner table is grouped by outer key
        and the block's own key values are collected once, and every
        later outer row is a set comparison.
        """
        slots = subquery.division_keys
        if slots is None:
            return None
        values = tuple(_freeze(outer[slot]) for slot in slots)
        statement = subquery.statement
        params = self._params[0]
        state = self._subquery_state(statement)
        table = state.tables.get(params)
        if table is None:
            cost = self._rows_in(statement) + self._rows_in(division.inner)
            table = state.tables[params] = _Table(cost)
        built = table.built
        if built is None:
            if not table.pays():
                read, joined = self._rows_read, self._rows_joined
                rows = self._run_subquery(subquery, outer)
                table.charge(self._rows_read - read, self._rows_joined - joined + len(rows))
                return len(rows) > 0
            built = self._build_division(state, table, division, params)
            if built is None:
                return None
            self.subquery_misses += 1
        else:
            self.subquery_hits += 1
        by_outer, own, own_null, nonempty = built
        if any(value is None for value in values):
            # The inner block has no rows for a NULL outer key.
            return nonempty if division.negated else False
        try:
            matched = by_outer.get(values, _NO_KEYS)
        except TypeError:
            matched = _NO_KEYS  # an unhashable probe value equals no stored one
        if division.negated:
            # Rows whose own key is NULL, or absent from the inner table
            # under this outer key, make the block non-empty.
            return own_null or not own <= matched
        return not own.isdisjoint(matched)

    def _build_table(
        self, state: _SubqueryState, info: _SubqueryInfo, params: Tuple[Any, ...]
    ) -> Optional[Dict[Tuple[Any, ...], List[Values]]]:
        """Run a key-correlated block once and hash its rows on the key columns.

        Returns None when the build raised (the statement then stays per
        key: the error may come from a row no outer key ever reaches) or
        the table alone would exceed the memo bound.
        """
        table = state.tables[params]
        try:
            if info.runners is None:
                project = self._plan_block(state.statement, info.block_where)
                rows, layout = self._build(project.child, None)
                info.runners = (
                    rows,
                    self._projector(project, layout, None)[0],
                    [self._expr_fn(column, layout) for column in info.key_columns],
                )
            rows, project_row, key_fns = info.runners
            keys = []
            sources = []
            for row in rows(None):
                key = tuple(fn(row) for fn in key_fns)
                if any(value is None for value in key):
                    continue  # a NULL key equals no outer value
                keys.append(key)
                sources.append(row)
            built: Dict[Tuple[Any, ...], List[Values]] = {}
            for key, row in zip(keys, map(project_row, sources)):
                bucket = built.get(key)
                if bucket is None:
                    built[key] = [row]
                else:
                    bucket.append(row)
        except Exception:  # noqa: BLE001 - any failure hands back to the per-key path
            table.failed = True
            return None
        if not self._charge(state, len(sources)):
            table.failed = True
            return None
        table.built = built
        state.tables[params] = table
        self.subquery_tables += 1
        return built

    def _build_division(
        self,
        state: _SubqueryState,
        table: _Table,
        division: _Division,
        params: Tuple[Any, ...],
    ) -> Optional[Tuple[Any, ...]]:
        """Group the inner table by outer key and collect the block's own keys."""
        inner_state = self._subquery_state(division.inner)
        inner_table = inner_state.tables.get(params)
        if inner_table is None:
            inner_table = inner_state.tables[params] = _Table(0)
        built = inner_table.built
        if built is None and not inner_table.failed:
            built = self._build_table(inner_state, division.inner_info, params)
        if built is None:
            table.failed = True
            return None
        outer_positions = division.outer_positions
        own_positions = division.own_positions
        by_outer: Dict[Tuple[Any, ...], set] = {}
        for key in built:
            outer = tuple(key[p] for p in outer_positions)
            own_key = tuple(key[p] for p in own_positions)
            members = by_outer.get(outer)
            if members is None:
                by_outer[outer] = {own_key}
            else:
                members.add(own_key)
        own: set = set()
        own_null = nonempty = False
        try:
            if division.runners is None:
                project = self._plan_block(state.statement, division.block_where)
                rows, layout = self._build(project.child, None)
                division.runners = (
                    rows,
                    [self._expr_fn(column, layout) for column in division.own_columns],
                )
            rows, own_fns = division.runners
            for row in rows(None):
                nonempty = True
                own_key = tuple(fn(row) for fn in own_fns)
                if any(value is None for value in own_key):
                    own_null = True
                else:
                    own.add(own_key)
        except Exception:  # noqa: BLE001 - any failure hands back to per-row
            table.failed = True
            return None
        if not self._charge(state, len(built) + len(own)):
            table.failed = True
            return None
        table.built = (by_outer, own, own_null, nonempty)
        state.tables[params] = table
        self.subquery_tables += 1
        return table.built

    def _plan_block(
        self, statement: ast.SelectStatement, where: Tuple[ast.Expression, ...]
    ) -> ProjectNode:
        """The Project at the root of ``statement``'s plan with ``where`` as its
        WHERE conjuncts (a key-correlated block has no DISTINCT or LIMIT)."""
        return self.planner.plan(replace(statement, where=ast.conjoin(where))).root

    def _rows_in(self, statement: ast.SelectStatement) -> int:
        """The rows a build of ``statement`` reads: its FROM tables' sizes."""
        return sum(
            self.database.table(table.name).row_count for table in statement.from_tables
        )

    def _subquery_state(self, statement: ast.SelectStatement) -> _SubqueryState:
        memo = self._scope.memo
        state = memo.get(id(statement))
        if state is None or state.statement is not statement:
            state = memo[id(statement)] = _SubqueryState(statement)
        return state

    def _remember(self, state: _SubqueryState, key: Any, rows: List[Values]) -> None:
        if self._charge(state, 1):
            state.memo[key] = rows

    def _charge(self, state: _SubqueryState, count: int) -> bool:
        """Count ``count`` new memo rows against the bound.

        Past the bound every other statement's memo and tables are
        dropped; False when ``count`` alone exceeds it (keep nothing).
        """
        if count > _SUBQUERY_MEMO_LIMIT:
            return False
        scope = self._scope
        scope.memo_entries += count
        if scope.memo_entries > _SUBQUERY_MEMO_LIMIT:
            scope.clear_memo()
            scope.memo_entries = count
            state.memo.clear()
            state.tables.clear()
            scope.memo[id(state.statement)] = state
        return True

    # ------------------------------------------------------------------
    # DML, helpers
    # ------------------------------------------------------------------

    def _execute_insert(self, statement: ast.InsertStatement) -> DmlResult:
        self._validate_caches()
        table = self.database.table(statement.table)
        columns = statement.columns or table.relation.attribute_names
        inserted = 0
        for row in statement.rows:
            values = {
                column: self._expr_fn(expression, ())(())
                for column, expression in zip(columns, row)
            }
            self.database.insert(statement.table, values)
            inserted += 1
        return DmlResult(statement_kind="INSERT", affected_rows=inserted)

    def _execute_update(self, statement: ast.UpdateStatement) -> DmlResult:
        self._validate_caches()
        binding = statement.alias or statement.table
        predicate = self._row_predicate(statement.table, binding, statement.where)
        changes: Dict[str, Any] = {}
        for column, expression in statement.assignments:
            changes[column] = self._expr_fn(expression, ())(())
        affected = self.database.update_where(
            statement.table,
            predicate,
            changes,
            rowids=self._dml_rowids(statement.table, binding, statement.where),
        )
        return DmlResult(statement_kind="UPDATE", affected_rows=affected)

    def _execute_delete(self, statement: ast.DeleteStatement) -> DmlResult:
        self._validate_caches()
        binding = statement.alias or statement.table
        predicate = self._row_predicate(statement.table, binding, statement.where)
        affected = self.database.delete_where(
            statement.table,
            predicate,
            rowids=self._dml_rowids(statement.table, binding, statement.where),
        )
        return DmlResult(statement_kind="DELETE", affected_rows=affected)

    def _row_predicate(
        self, table_name: str, binding: str, where: Optional[ast.Expression]
    ) -> Callable[[Row], bool]:
        """An UPDATE or DELETE WHERE as a test of a stored row of the table."""
        matches = self._pred_fn(where, self._scan_layout(table_name, binding))
        return lambda row: matches(tuple(row.raw.values()))

    def _dml_rowids(
        self, table_name: str, binding: str, where: Optional[ast.Expression]
    ) -> Optional[Tuple[int, ...]]:
        """Candidate rowids of a keyed UPDATE or DELETE, or None to scan.

        The WHERE's index-usable equalities (:func:`keyed_equalities`)
        probe the table as a compiled scan's pushed equalities do, with
        the same fallbacks to a scan: interpreted mode, no such conjunct,
        an empty table, or a column the table lacks.  The rowids come
        sorted, which is the scan's order.
        """
        if not self.compiled:
            return None
        table = self.database.table(table_name)
        pairs = keyed_equalities(where, binding, table.relation.has_attribute)
        if not pairs or not table.row_count:
            return None
        return self._probe(
            table,
            tuple(column for column, _ in pairs),
            [self._expr_fn(value, ()) for _, value in pairs],
            (),
        )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _filter_chain(
    node: PlanNode,
) -> Optional[Tuple[ScanNode, List[ast.Expression]]]:
    """Descend Filter* -> Scan; predicates returned innermost first.

    The planner stacks one FilterNode per AND conjunct, so vectorizing
    only filters *directly* over a scan would leave every multi-conjunct
    WHERE mostly row-at-a-time.  Scans with pushed equality conjuncts
    are excluded — their index probes beat any full scan.
    """
    predicates: List[ast.Expression] = []
    current = node
    while isinstance(current, FilterNode):
        predicates.append(current.predicate)
        current = current.child
    if (
        not isinstance(current, ScanNode)
        or not current.table_name
        or current.eq_columns
    ):
        return None
    predicates.reverse()
    return current, predicates


def _scoped(outer: Optional[Layout], layout: Layout) -> Layout:
    """The layout an expression over ``layout``'s rows reads: the outer
    row's columns, if any, then the row's."""
    return layout if outer is None else outer + layout


def _lacking(layout: Iterable[str]) -> bool:
    """Whether rows of ``layout`` may lack columns (hold :data:`_ABSENT`)."""
    return any(type(name) is _Lacking for name in layout)


def _unless_lacking(
    compiled: Callable[[Values], Any], interpreted: Callable[[Values], Any], layout: Layout
) -> Callable[[Values], Any]:
    """``compiled``, except on a row that lacks columns of ``layout``, which
    ``interpreted`` resolves by name against the columns it has."""
    lacking = [slot for slot, name in enumerate(layout) if type(name) is _Lacking]
    if not lacking:
        return compiled
    return lambda values: (
        interpreted(values) if any(values[s] is _ABSENT for s in lacking) else compiled(values)
    )


def _as_row(layout: Layout, values: Values) -> Row:
    """A :class:`Row` of ``values`` keyed by ``layout``, without lacking columns."""
    return Row.adopt({name: value for name, value in zip(layout, values) if value is not _ABSENT})


def _result_rows(layout: Layout, rows: Iterable[Values]) -> List[Row]:
    """The result's :class:`Row` objects, keyed by the output names."""
    if _lacking(layout):
        return [_as_row(tuple(map(str, layout)), row) for row in rows]
    return [Row.adopt(dict(zip(layout, row))) for row in rows]


def _empty_row(outer_values: Optional[Values]) -> Iterator[Values]:
    yield ()


def _filter(predicate: Callable[[Values], bool], child: Runner) -> Runner:
    def run(outer_values: Optional[Values]) -> Iterator[Values]:
        if outer_values is None:
            for row in child(None):
                if predicate(row):
                    yield row
        else:
            for row in child(outer_values):
                if predicate(outer_values + row):
                    yield row

    return run


def _project(project: Callable[[Values], Values], child: Runner) -> Runner:
    def run(outer_values: Optional[Values]) -> Iterator[Values]:
        if outer_values is None:
            for row in child(None):
                yield project(row)
        else:
            for row in child(outer_values):
                yield project(outer_values + row)

    return run


def _distinct(child: Runner) -> Runner:
    def run(outer_values: Optional[Values]) -> Iterator[Values]:
        seen = set()
        for row in child(outer_values):
            key = tuple(map(_freeze, row))
            if key not in seen:
                seen.add(key)
                yield row

    return run


def _limit(limit: Optional[int], offset: Optional[int], child: Runner) -> Runner:
    start = offset or 0
    end = start + limit if limit is not None else None

    def run(outer_values: Optional[Values]) -> Iterator[Values]:
        yield from islice(child(outer_values), start, end)

    return run


def _join_matches(
    combined: Values, matchers: List[Callable[[Values], bool]], outer_values: Optional[Values]
) -> bool:
    if not matchers:
        return True
    values = combined if outer_values is None else outer_values + combined
    return all(matcher(values) for matcher in matchers)


def _compute_aggregate(
    spec: Tuple, members: List[Values], outer_values: Optional[Values]
) -> Any:
    _, name, arg_fn, distinct, count_star = spec
    if count_star:
        return len(members)
    if arg_fn is None:
        raise EvaluationError(f"aggregate {name} requires an argument")

    values = []
    for row in members:
        value = arg_fn(row if outer_values is None else outer_values + row)
        if value is not None:
            values.append(value)
    if distinct:
        seen = set()
        unique = []
        for value in values:
            frozen = _freeze(value)
            if frozen not in seen:
                seen.add(frozen)
                unique.append(value)
        values = unique

    if name == "COUNT":
        return len(values)
    if not values:
        return None
    if name == "SUM":
        return sum(values)
    if name == "AVG":
        return sum(values) / len(values)
    if name == "MIN":
        return min(values)
    if name == "MAX":
        return max(values)
    raise EvaluationError(f"unknown aggregate {name}")  # pragma: no cover


def _order_value(
    expression: ast.Expression,
    text_slot: Optional[int],
    fn: CompiledExpr,
    aliases: Dict[str, CompiledExpr],
    row: Values,
    scoped: Values,
) -> Any:
    # ORDER BY may reference base columns (sorting runs before projection),
    # aggregate results stored under their SQL text, or select-list aliases.
    try:
        return fn(scoped)
    except EvaluationError:
        if text_slot is not None and row[text_slot] is not _ABSENT:
            return row[text_slot]
        if isinstance(expression, ast.ColumnRef) and expression.table is None:
            alias_fn = aliases.get(expression.column.lower())
            if alias_fn is not None:
                return alias_fn(scoped)
        raise


def _expression_key(expression: ast.Expression) -> str:
    """The row key a GROUP BY expression's value is stored under."""
    if isinstance(expression, ast.ColumnRef):
        return expression.qualified
    return str(expression)


def _freeze(value: Any) -> Any:
    if isinstance(value, (list, set)):
        return tuple(value)
    return value


class _OrderKey:
    """Sort key wrapper handling NULLs (last) and DESC ordering."""

    __slots__ = ("value", "descending")

    def __init__(self, value: Any, descending: bool) -> None:
        self.value = value
        self.descending = descending

    def __lt__(self, other: "_OrderKey") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return False  # NULLs sort last regardless of direction
        if b is None:
            return True
        if self.descending:
            return b < a
        return a < b

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _OrderKey) and self.value == other.value


def execute(database: Database, sql_or_statement) -> Any:
    """Convenience: execute SQL text or a parsed statement against ``database``."""
    executor = Executor(database)
    if isinstance(sql_or_statement, str):
        return executor.execute_sql(sql_or_statement)
    return executor.execute(sql_or_statement)
