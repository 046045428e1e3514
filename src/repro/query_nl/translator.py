"""The query translator facade: SQL in, natural language out.

This is the public entry point for Section 3 of the paper.  It parses the
query, builds and classifies its query graph, dispatches to the
category-specific translator, and returns a :class:`QueryTranslation`
carrying the narrative, the category, the notes explaining how the
narrative was obtained and, when a rewrite was involved (Q5), the
rewritten SQL.

Two fast paths sit in front of the full pipeline:

* an exact-text LRU (translation is a pure function of schema, lexicon
  and SQL text), and
* shape-keyed phrase plans (:mod:`repro.query_nl.plans`): queries that
  differ from a previously translated one only in their literal values
  are rendered by slot substitution — no lexing into tokens, no parse, no
  graph build.  The query graph and classification of a plan-rendered
  translation are materialised lazily on first access.

Both are admitted on a shape's *second* sighting, and by no other
route: the first translation of a shape runs the full pipeline and
caches nothing (no phrase plan, no exact-text entry), so one-off queries
cost no sentinel probe and evict nothing; the second compiles the plan
and caches the text, and every later request is served as before.

``QueryTranslator(schema, phrase_plans=False)`` is the oracle mode that
always runs the full pipeline; the differential tests assert both modes
agree byte-for-byte on every output field.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from repro.catalog.schema import Schema
from repro.content.presets import NarrationSpec
from repro.lexicon.lexicon import Lexicon, default_lexicon_for
from repro.oracle import resolve_compiled_default
from repro.query_nl.aggregate import AggregateTranslator
from repro.query_nl.dml import DmlTranslator
from repro.query_nl.impossible import ImpossibleTranslator
from repro.query_nl.nested import NestedTranslator
from repro.query_nl.plans import (
    UNPLANNABLE,
    compile_plan,
    plan_store_for,
    render_segments,
    shape_key,
)
from repro.query_nl.procedural import procedural_translation
from repro.query_nl.spj import SpjTranslator
from repro.querygraph.builder import builder_for
from repro.querygraph.classify import Classification, QueryCategory, classify_graph
from repro.querygraph.model import QueryGraph
from repro.sql import ast
from repro.sql.parser import parse_sql
from repro.utils.cache import LRUCache


class QueryTranslation:
    """The result of translating one statement.

    ``graph`` and ``classification`` may be materialised lazily: a
    translation rendered from a compiled phrase plan carries a factory
    instead of a built graph, and only builds it when a caller actually
    asks (the translation text itself never needs it).
    """

    __slots__ = (
        "sql",
        "text",
        "category",
        "concise",
        "notes",
        "rewritten_sql",
        "_classification",
        "_graph",
        "_graph_factory",
    )

    def __init__(
        self,
        sql: str,
        text: str,
        category: Optional[QueryCategory] = None,
        concise: Optional[str] = None,
        notes: Optional[List[str]] = None,
        rewritten_sql: Optional[str] = None,
        classification: Optional[Classification] = None,
        graph: Optional[QueryGraph] = None,
        graph_factory=None,
    ) -> None:
        self.sql = sql
        self.text = text
        self.category = category
        self.concise = concise
        self.notes = notes if notes is not None else []
        self.rewritten_sql = rewritten_sql
        self._classification = classification
        self._graph = graph
        self._graph_factory = graph_factory

    @property
    def graph(self) -> Optional[QueryGraph]:
        if self._graph is None and self._graph_factory is not None:
            self._graph = self._graph_factory()
            self._graph_factory = None
        return self._graph

    @property
    def has_graph(self) -> bool:
        """Whether a graph is available (built or lazily buildable)."""
        return self._graph is not None or self._graph_factory is not None

    @property
    def classification(self) -> Optional[Classification]:
        if self._classification is None and self.has_graph:
            self._classification = classify_graph(self.graph)
        return self._classification

    @property
    def variants(self) -> Dict[str, str]:
        """All produced renderings keyed by name."""
        variants = {"default": self.text}
        if self.concise and self.concise != self.text:
            variants["concise"] = self.concise
        return variants

    def copy(self) -> "QueryTranslation":
        """A shallow copy whose mutable ``notes`` list is the caller's own."""
        return QueryTranslation(
            sql=self.sql,
            text=self.text,
            category=self.category,
            concise=self.concise,
            notes=list(self.notes),
            rewritten_sql=self.rewritten_sql,
            classification=self._classification,
            graph=self._graph,
            graph_factory=self._graph_factory,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryTranslation):
            return NotImplemented
        return (
            self.sql == other.sql
            and self.text == other.text
            and self.category == other.category
            and self.concise == other.concise
            and self.notes == other.notes
            and self.rewritten_sql == other.rewritten_sql
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"QueryTranslation(sql={self.sql!r}, text={self.text!r},"
            f" category={self.category!r})"
        )

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.text


class QueryTranslator:
    """Translate SQL statements into natural language over one schema."""

    def __init__(
        self,
        schema: Schema,
        spec: Optional[NarrationSpec] = None,
        lexicon: Optional[Lexicon] = None,
        cache_size: Optional[int] = 512,
        phrase_plans: Optional[bool] = None,
    ) -> None:
        # ``phrase_plans`` defaults to on, unless REPRO_ORACLE forces the
        # interpreted defaults (an explicit argument always wins).
        phrase_plans = resolve_compiled_default(phrase_plans)
        self.schema = schema
        # Translation is a pure function of (schema, lexicon, SQL text), so
        # repeated translations of the same SQL — the common case when the
        # DBMS "talks back" under real traffic — are served from an LRU.
        self._cache: Optional[LRUCache] = (
            LRUCache(cache_size) if cache_size else None
        )
        if lexicon is not None:
            self.lexicon = lexicon
        elif spec is not None:
            self.lexicon = spec.lexicon
        else:
            # The shared per-schema default, so compiled per-schema state
            # (phrase plans, lexicon memos) persists across translators.
            self.lexicon = default_lexicon_for(schema)
        self.builder = builder_for(schema)
        self._spj = SpjTranslator(schema, self.lexicon)
        self._nested = NestedTranslator(schema, self.lexicon)
        self._aggregate = AggregateTranslator(schema, self.lexicon)
        self._impossible = ImpossibleTranslator(schema, self.lexicon)
        self._dml = DmlTranslator(schema, self.lexicon)
        self._plans = plan_store_for(self.lexicon) if phrase_plans else None
        self._cache_lexicon_version = self.lexicon.version

    # ------------------------------------------------------------------

    def translate(self, sql_or_statement: Union[str, ast.Statement]) -> QueryTranslation:
        """Translate SQL text or a parsed statement."""
        if isinstance(sql_or_statement, str):
            return self._translate_sql(sql_or_statement)
        statement = sql_or_statement
        sql = str(statement) if isinstance(statement, ast.SelectStatement) else ""
        return self._translate_statement(sql, statement)

    def _translate_sql(self, sql: str) -> QueryTranslation:
        """Translate SQL text through the exact-text LRU and phrase plans."""
        cached = self._exact_hit(sql)
        if cached is not None:
            return cached
        translation, admitted = self._translate_text(sql)
        return self._remember(sql, translation) if admitted else translation

    def translate_procedurally(
        self, sql_or_statement: Union[str, ast.SelectStatement]
    ) -> QueryTranslation:
        """The procedural (clause-by-clause) narrative, regardless of category."""
        statement = (
            parse_sql(sql_or_statement)
            if isinstance(sql_or_statement, str)
            else sql_or_statement
        )
        assert isinstance(statement, ast.SelectStatement)
        graph = self.builder.build(statement)
        text = procedural_translation(self.schema, self.lexicon, graph)
        return QueryTranslation(
            sql=sql_or_statement if isinstance(sql_or_statement, str) else str(statement),
            text=text,
            category=classify_graph(graph).category,
            notes=["procedural narrative requested explicitly"],
            graph=graph,
        )

    def try_fast_translate(self, sql: str) -> Optional[QueryTranslation]:
        """Serve ``sql`` from the exact-text LRU or a compiled phrase plan.

        Returns ``None`` when neither fast path applies — the caller then
        owns the cold (full-pipeline) translation.  A hit costs
        microseconds and never parses, builds or compiles.  A miss
        records nothing (the cold path that follows does its own
        accounting).  ``translate`` takes the same two fast paths, so
        nothing in the package calls this cache-only probe; it stays as
        public API (``docs/api.md``), and ``talkbench/trace.py`` wraps it.
        """
        # A probe: a miss here is retried (and counted) by the cold
        # path's ``translate``, so it must not skew the stats.
        cached = self._exact_hit(sql, record_miss=False)
        if cached is not None:
            return cached
        if self._plans is None:
            return None
        rendered, _miss = self._plan_hit(sql)
        return None if rendered is None else self._remember(sql, rendered)

    def stats(self) -> Dict[str, Any]:
        """Cache/plan observability for this translator.

        ``exact_cache`` covers the exact-text LRU; ``plan_store`` is the
        shared per-lexicon store (hits, misses — of which ``deferred``
        were first sightings left uncompiled — size, plus the
        unplannable-shape report).
        """
        return {
            "exact_cache": self._cache.stats if self._cache is not None else None,
            "plan_store": self._plans.stats if self._plans is not None else None,
            "lexicon_version": self.lexicon.version,
        }

    # ------------------------------------------------------------------
    # The exact-text LRU and shape-keyed phrase plans
    # ------------------------------------------------------------------

    def _exact_hit(self, sql: str, record_miss: bool = True) -> Optional[QueryTranslation]:
        """A copy of the exact-text LRU's translation of ``sql``, if cached."""
        if self._cache is None:
            return None
        # Translations are lexical output: vocabulary overrides on the
        # (possibly shared) lexicon invalidate the exact-text LRU just
        # like they invalidate the phrase-plan store.
        if self._cache_lexicon_version != self.lexicon.version:
            self._cache.clear()
            self._cache_lexicon_version = self.lexicon.version
        cached = self._cache.get(sql, record_miss=record_miss)
        # Shallow-copy the mutable list so callers cannot corrupt the
        # cached translation.
        return None if cached is None else cached.copy()

    def _remember(self, sql: str, translation: QueryTranslation) -> QueryTranslation:
        """Cache the pristine ``translation`` and hand the caller a copy.

        Every lookup, hit or miss, then performs exactly one copy.
        """
        if self._cache is None:
            return translation
        self._cache.put(sql, translation)
        return translation.copy()

    def _plan_hit(self, sql: str):
        """``(translation, miss)``: ``sql`` rendered from its phrase plan.

        On a store hit (counted here) ``translation`` is the rendering and
        ``miss`` is ``None``.  Otherwise ``translation`` is ``None`` and
        ``miss`` is ``(shape, guards, literals, entry)``, ``entry`` being
        the store's ``None`` (never compiled) or ``UNPLANNABLE``; ``miss``
        is ``None`` too when the text has no shape key.  Misses are left
        for the caller to count.
        """
        keyed = shape_key(sql)
        if keyed is None:
            return None, None
        shape, guards, literals = keyed
        plans = self._plans
        plan = plans.lookup(self.lexicon, (shape, guards))
        if plan is None or plan is UNPLANNABLE:
            return None, (shape, guards, literals, plan)
        plans.record_hit()
        return self._render_plan(plan, sql, literals), None

    def _translate_text(self, sql: str) -> Tuple[QueryTranslation, bool]:
        """``(translation, admitted)``; a first sighting is not admitted.

        A shape's first sighting runs the full pipeline and compiles
        nothing; the caller caches nothing for it either.
        """
        plans = self._plans
        compile_key = None
        if plans is not None:
            rendered, miss = self._plan_hit(sql)
            if rendered is not None:
                return rendered, True
            if miss is not None:
                shape, guards, literals, plan = miss
                if plan is None and not plans.admits(shape):
                    plans.record_miss(deferred=True)
                    return self._translate_statement(sql, parse_sql(sql)), False
                plans.record_miss()
                if plan is None:
                    compile_key = (shape, guards, literals)
        translation = self._translate_statement(sql, parse_sql(sql))
        if compile_key is not None:
            shape, guards, literals = compile_key
            plan = compile_plan(translation, literals, guards, shape, self._probe_translate)
            plans.store(
                self.lexicon,
                (shape, guards),
                plan if plan is not None else UNPLANNABLE,
                sample_sql=sql,
            )
        return translation, True

    def _probe_translate(self, sql: str) -> QueryTranslation:
        """One full-pipeline translation (no caches, no plans) for the probe."""
        return self._translate_statement(sql, parse_sql(sql))

    def _render_plan(self, plan, sql: str, literals) -> QueryTranslation:
        graph_factory = None
        if plan.had_graph:
            builder = self.builder

            def graph_factory(_sql=sql, _builder=builder):
                return _builder.build(parse_sql(_sql))

        return QueryTranslation(
            sql=sql,
            text=render_segments(plan.text, literals),
            category=plan.category,
            concise=render_segments(plan.concise, literals),
            notes=[render_segments(note, literals) for note in plan.notes],
            rewritten_sql=render_segments(plan.rewritten_sql, literals),
            graph_factory=graph_factory,
        )

    # ------------------------------------------------------------------

    def _translate_statement(self, sql: str, statement: ast.Statement) -> QueryTranslation:
        if not isinstance(statement, ast.SelectStatement):
            return QueryTranslation(
                sql=sql,
                text=self._dml.translate(statement),
                notes=["data-manipulation statement"],
            )
        return self._translate_select(sql, statement)

    def _translate_select(self, sql: str, statement: ast.SelectStatement) -> QueryTranslation:
        graph = self.builder.build(statement)
        classification = classify_graph(graph)
        category = classification.category

        rewritten_sql: Optional[str] = None
        if category in (QueryCategory.PATH, QueryCategory.SUBGRAPH, QueryCategory.GRAPH):
            result = self._spj.translate(graph)
            text, concise, notes = result.text, result.concise, result.notes
        elif category is QueryCategory.NESTED:
            nested = self._nested.translate(graph)
            text, concise, notes = nested.text, nested.concise, nested.notes
            rewritten_sql = nested.rewritten_sql
        elif category is QueryCategory.AGGREGATE:
            aggregate = self._aggregate.translate(graph)
            text, concise, notes = aggregate.text, aggregate.concise, aggregate.notes
        else:
            impossible = self._impossible.translate(graph)
            text, concise, notes = impossible.text, impossible.concise, impossible.notes

        return QueryTranslation(
            sql=sql,
            text=text,
            concise=concise,
            category=category,
            notes=[*classification.reasons, *notes],
            rewritten_sql=rewritten_sql,
            classification=classification,
            graph=graph,
        )


def translate_query(
    schema: Schema, sql: str, spec: Optional[NarrationSpec] = None
) -> QueryTranslation:
    """Convenience one-shot translation."""
    return QueryTranslator(schema, spec=spec).translate(sql)
