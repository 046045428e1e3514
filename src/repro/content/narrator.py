"""The content narrator: database contents → natural-language narratives.

This is the public entry point for Section 2 of the paper.  It combines
the schema graph, the template registry, the lexicon, ranking and the
document planner into a handful of high-level calls:

* :meth:`ContentNarrator.narrate_tuple` — one tuple (alternative (a)/(b));
* :meth:`ContentNarrator.narrate_entity` — one tuple plus its related
  tuples across bridge relations (the Woody Allen example), in compact or
  procedural synthesis mode;
* :meth:`ContentNarrator.narrate_split` — a split-pattern sentence
  ("The movie M1 involves the director D1 who ... and the actor A1 ...");
* :meth:`ContentNarrator.narrate_relation` — all (or the top-k) tuples of
  a relation;
* :meth:`ContentNarrator.narrate_database` — a traversal-driven,
  ranking-bounded summary of the whole database;
* :meth:`ContentNarrator.narrate_query_answer` — the textual rendering of
  a query result (Section 2.1: "Whatever holds for whole databases, of
  course, holds for query answers as well").
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Union

from repro.content.navigation import find_by_heading, related_rows
from repro.content.patterns import (
    SynthesisMode,
    split_pattern_clause,
    unary_pattern_clauses,
)
from repro.content.personalization import DEFAULT_PROFILE, UserProfile
from repro.content.presets import NarrationSpec, default_spec
from repro.content.ranking import coverage_plan, rank_tuples
from repro.content.single_relation import TupleStyle, tuple_clauses
from repro.engine.result import QueryResult
from repro.errors import TranslationError
from repro.graph.schema_graph import graph_for
from repro.lexicon.morphology import join_list
from repro.nlg.clause import Clause
from repro.nlg.document import (
    DocumentPlan,
    LengthBudget,
    PlannedSentence,
    collect_streaming,
)
from repro.nlg.realize import realize_paragraph, realize_sentence
from repro.storage.database import Database
from repro.storage.row import Row


class ContentNarrator:
    """Generate narratives about the contents of one database."""

    def __init__(
        self,
        database: Database,
        spec: Optional[NarrationSpec] = None,
        profile: Optional[UserProfile] = None,
    ) -> None:
        self.database = database
        self.spec = spec or default_spec(database.schema)
        self.profile = profile or DEFAULT_PROFILE
        self.graph = graph_for(database.schema)

    # ------------------------------------------------------------------
    # Low-level building blocks
    # ------------------------------------------------------------------

    def tuple_clauses(
        self,
        relation_name: str,
        row: Mapping,
        style: TupleStyle = TupleStyle.FULL,
    ) -> List[Clause]:
        """Clauses describing one tuple, with common expressions merged."""
        relation = self.database.schema.relation(relation_name)
        return tuple_clauses(
            relation,
            row,
            self.spec.registry,
            style=style,
            profile=self.profile,
            attribute_order=self.spec.order_for(relation_name),
        )

    def narrate_tuple(
        self,
        relation_name: str,
        row: Mapping,
        style: TupleStyle = TupleStyle.FULL,
    ) -> str:
        """One tuple as text ("Woody Allen was born in ... on ...")."""
        return realize_paragraph(self.tuple_clauses(relation_name, row, style))

    # ------------------------------------------------------------------
    # Entity narration (unary pattern over a bridge)
    # ------------------------------------------------------------------

    def narrate_entity(
        self,
        relation_name: str,
        heading_or_row: Union[str, Mapping],
        related_relation: Optional[str] = None,
        mode: SynthesisMode = SynthesisMode.COMPACT,
        budget: Optional[LengthBudget] = None,
    ) -> str:
        """A tuple plus its related tuples (the Woody Allen narrative).

        ``heading_or_row`` is either the tuple itself or the value of its
        heading attribute ("Woody Allen").  ``related_relation`` defaults
        to the highest-weight non-bridge neighbour reachable through the
        schema graph (MOVIES for a DIRECTOR).
        """
        relation = self.database.schema.relation(relation_name)
        row = self._resolve_row(relation_name, heading_or_row)
        partner_name = related_relation or self._default_partner(relation.name)

        if partner_name is None:
            clauses = self.tuple_clauses(relation.name, row)
            return self._render(clauses, budget)

        partner = self.database.schema.relation(partner_name)
        path = self.graph.shortest_path(relation.name, partner.name)
        if not path:
            raise TranslationError(
                f"relations {relation.name} and {partner.name} are not connected"
            )
        partner_rows = related_rows(self.database, path, row)
        clauses = unary_pattern_clauses(
            relation,
            row,
            partner,
            partner_rows,
            self.spec.registry,
            self.spec.lexicon,
            mode=mode,
            profile=self.profile,
            attribute_order=self.spec.order_for(relation.name),
        )
        return self._render(clauses, budget)

    def narrate_split(
        self,
        center_relation: str,
        heading_or_row: Union[str, Mapping],
        partner_relations: Sequence[str],
        verb: str = "involves",
    ) -> str:
        """A split-pattern sentence for one center tuple and its partners.

        For each partner relation the first related tuple is used; partner
        relations with no related tuple are skipped.
        """
        center = self.database.schema.relation(center_relation)
        row = self._resolve_row(center_relation, heading_or_row)
        partners = []
        for partner_name in partner_relations:
            partner = self.database.schema.relation(partner_name)
            path = self.graph.shortest_path(center.name, partner.name)
            if not path:
                continue
            rows = related_rows(self.database, path, row)
            if rows:
                partners.append((partner, rows[0]))
        if not partners:
            return self.narrate_tuple(center_relation, row)
        clause = split_pattern_clause(
            center, row, partners, self.spec.registry, self.spec.lexicon,
            profile=self.profile, verb=verb,
        )
        return realize_sentence(clause)

    # ------------------------------------------------------------------
    # Relation and database narration
    # ------------------------------------------------------------------

    def narrate_relation(
        self,
        relation_name: str,
        limit: Optional[int] = None,
        style: TupleStyle = TupleStyle.FULL,
        budget: Optional[LengthBudget] = None,
        streaming: bool = True,
    ) -> str:
        """Narrate the (top ``limit``) tuples of one relation.

        With ``streaming`` (the default) clause production is lazy and
        stops once the length budget is provably satisfied, so the cost
        beyond ranking is O(budget) rather than O(rows); the output is
        byte-identical to the eager (``streaming=False``) path.
        """
        resolved = self._budget(budget)
        ranked = rank_tuples(self.database, relation_name, limit=limit, profile=self.profile)
        if streaming:
            plan = collect_streaming(
                self._relation_sentence_stream(relation_name, ranked, style), resolved
            )
            return plan.render(resolved)
        plan = DocumentPlan()
        for entry in ranked:
            for clause in self.tuple_clauses(relation_name, entry.row, style):
                plan.add_clause(clause)
        return plan.render(resolved)

    def _relation_sentence_stream(self, relation_name, ranked, style):
        relation = self.database.schema.relation(relation_name)
        bound = self._tuple_clause_bound(relation.name, style)
        for entry in ranked:
            for clause in self.tuple_clauses(relation_name, entry.row, style):
                text = realize_sentence(clause)
                if text:
                    yield (
                        PlannedSentence(text=text, weight=clause.weight, about=clause.about),
                        bound,
                    )

    def narrate_database(
        self,
        start: Optional[str] = None,
        relations: Optional[Sequence[str]] = None,
        max_relations: Optional[int] = None,
        max_tuples_per_relation: Optional[int] = 3,
        mode: SynthesisMode = SynthesisMode.COMPACT,
        budget: Optional[LengthBudget] = None,
        include_overview: bool = True,
    ) -> str:
        """A ranking-bounded narrative of the whole database.

        The narrative starts from ``start`` (default: the schema graph's
        central relation), covers relations most-interesting-first and
        narrates the top tuples of each, connecting them to their most
        interesting neighbour through the unary pattern.  Every clause is
        built before the length budget trims the plan.
        """
        plan = DocumentPlan()
        if include_overview:
            plan.add_text(self._overview_sentence(), weight=10.0, about="overview")

        allowed = None
        if relations is not None:
            allowed = {self.database.schema.relation(r).name for r in relations}

        covered = coverage_plan(
            self.database,
            profile=self.profile,
            max_relations=max_relations,
            max_tuples_per_relation=max_tuples_per_relation,
        )
        start_name = (
            self.database.schema.relation(start).name
            if start is not None
            else self.graph.central_relation().name
        )
        ordered_relations = sorted(
            covered.keys(), key=lambda name: (name != start_name,)
        )
        for relation_name in ordered_relations:
            if allowed is not None and relation_name not in allowed:
                continue
            partner = self._default_partner(relation_name)
            for entry in covered[relation_name]:
                clauses = self._entity_clauses(relation_name, entry.row, partner, mode)
                for clause in clauses:
                    plan.add_clause(clause)
        return plan.render(self._budget(budget))

    def _tuple_clause_bound(self, relation_name: str, style: TupleStyle) -> float:
        """An upper bound on the weight of any clause one tuple can yield.

        Full-style tuples produce attribute clauses weighted by attribute
        weight; an attribute whose values are currently all NULL produces
        no clause at all, and the heading-only fallback (weighted by
        relation weight) only happens for a tuple whose narrated
        attributes are all NULL — both of which the table's NULL tallies
        rule in or out without touching a row.
        """
        relation = self.database.schema.relation(relation_name)
        relation_weight = self.profile.relation_weight(relation)
        if style is TupleStyle.HEADING_ONLY:
            return relation_weight
        order = self.spec.order_for(relation.name)
        if order is not None:
            names = list(order)
        else:
            heading_name = self.profile.heading_attribute(relation)
            names = [
                a.name
                for a in relation.attributes
                if not a.primary_key and a.name != heading_name
            ]
        if not names:
            return relation_weight
        table = self.database.table(relation.name)
        rows = len(table)
        weights = [
            self.profile.attribute_weight(relation, name)
            for name in names
            if rows - table.null_count(name) > 0
        ]
        fallback_possible = all(table.null_count(name) > 0 for name in names)
        if fallback_possible or not weights:
            weights.append(relation_weight)
        return max(weights)

    def narrate_schema(self) -> str:
        """A narrative describing the schema itself (Section 2.1)."""
        from repro.content.summarizer import describe_schema

        return describe_schema(self.database.schema, self.spec.lexicon)

    # ------------------------------------------------------------------
    # Query answers (Section 2.1)
    # ------------------------------------------------------------------

    def narrate_query_answer(
        self,
        result: QueryResult,
        subject: str = "The query",
        max_rows: int = 10,
    ) -> str:
        """Render a query result as text.

        Single-column results become one list sentence; multi-column
        results are narrated row by row ("name is X and title is Y").
        """
        if result.is_empty:
            return realize_sentence(f"{subject} returns no results")
        sentences: List[str] = []
        total = len(result.rows)
        shown = min(total, max_rows)
        if len(result.columns) == 1:
            values = [str(row.get(result.columns[0])) for row in result.rows[:shown]]
            label = result.columns[0].rsplit(".", 1)[-1]
            summary = f"{subject} returns {total} {label} value" + ("s" if total != 1 else "")
            sentences.append(f"{summary}: {join_list(values)}")
        else:
            sentences.append(f"{subject} returns {total} rows")
            for row in result.rows[:shown]:
                parts = [
                    f"{column.rsplit('.', 1)[-1]} {row.get(column)}"
                    for column in result.columns
                ]
                sentences.append("one result has " + join_list(parts))
        if total > shown:
            sentences.append(f"{total - shown} more rows are not shown")
        return realize_paragraph(sentences)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _resolve_row(self, relation_name: str, heading_or_row: Union[str, Mapping]) -> Row:
        if isinstance(heading_or_row, Row):
            return heading_or_row
        if isinstance(heading_or_row, Mapping):
            return Row(dict(heading_or_row))
        relation = self.database.schema.relation(relation_name)
        heading_attribute = self.profile.heading_attribute(relation)
        row = find_by_heading(
            self.database, relation_name, heading_or_row, heading_attribute
        )
        if row is None:
            raise TranslationError(
                f"no {relation_name} tuple with {heading_attribute} = {heading_or_row!r}"
            )
        return row

    def _default_partner(self, relation_name: str) -> Optional[str]:
        """The most interesting non-bridge relation reachable from ``relation_name``."""
        candidates: List[str] = []
        for neighbour in self.graph.neighbours(relation_name):
            relation = self.database.schema.relation(neighbour)
            if relation.bridge:
                for second in self.graph.neighbours(neighbour):
                    if second != relation_name and not self.database.schema.relation(second).bridge:
                        candidates.append(second)
            else:
                candidates.append(neighbour)
        candidates = [c for c in candidates if self.profile.includes(c)]
        if not candidates:
            return None
        return max(
            candidates,
            key=lambda name: (self.profile.relation_weight(self.database.schema.relation(name)), name),
        )

    def _entity_clauses(
        self,
        relation_name: str,
        row: Row,
        partner_name: Optional[str],
        mode: SynthesisMode,
    ) -> List[Clause]:
        relation = self.database.schema.relation(relation_name)
        if partner_name is None:
            return self.tuple_clauses(relation_name, row)
        partner = self.database.schema.relation(partner_name)
        path = self.graph.shortest_path(relation.name, partner.name)
        partner_rows = related_rows(self.database, path, row) if path else []
        if not partner_rows:
            return self.tuple_clauses(relation_name, row)
        return unary_pattern_clauses(
            relation,
            row,
            partner,
            partner_rows,
            self.spec.registry,
            self.spec.lexicon,
            mode=mode,
            profile=self.profile,
            attribute_order=self.spec.order_for(relation.name),
        )

    def _overview_sentence(self) -> str:
        lexicon = self.spec.lexicon
        counts = []
        for relation in self.database.schema.relations:
            if relation.bridge or not self.profile.includes(relation.name):
                continue
            count = len(self.database.table(relation.name))
            noun = (
                lexicon.concept_plural(relation.name)
                if count != 1
                else lexicon.concept(relation.name)
            )
            counts.append(f"{count} {noun}")
        return f"The {self.database.schema.name} database describes {join_list(counts)}"

    def _budget(self, budget: Optional[LengthBudget]) -> LengthBudget:
        if budget is not None:
            return budget
        return self.profile.budget

    def _render(self, clauses: Sequence[Clause], budget: Optional[LengthBudget]) -> str:
        plan = DocumentPlan()
        plan.extend_clauses(clauses)
        return plan.render(self._budget(budget))
