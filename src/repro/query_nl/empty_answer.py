"""Explanation of empty (and unexpectedly large) query answers.

Section 3.1: "when a query returns an empty answer, it is nice to know the
parts of the query that are responsible for the failure.  Similarly, when
a query is expected to return a very large number of answers, it is useful
to know the reasons".

The explainer runs the query, and when the answer is empty it relaxes the
selection constraints one at a time (then pairwise) and re-executes: the
constraints whose removal brings results back are reported as responsible.
For very large answers it reports the cross products / weakly selective
parts of the query.

A SQL text runs through :meth:`Executor.execute_sql`, so a repeated
explanation reuses the text's shape plan and subquery memo; the text is
parsed only when its answer is empty or large and must be taken apart.
Each relaxed statement is printed back to SQL and runs through
``execute_sql`` too, so a repeated explanation of an empty answer plans
nothing once its relaxations' shapes are admitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.engine.executor import Executor
from repro.lexicon.lexicon import Lexicon, default_lexicon
from repro.lexicon.morphology import join_list
from repro.nlg.realize import realize_paragraph
from repro.sql import ast
from repro.sql.parser import parse_select
from repro.sql.printer import expression_to_sql, to_sql
from repro.sql.shape import is_mutation
from repro.storage.database import Database


@dataclass
class EmptyAnswerExplanation:
    """The outcome of analysing a query's (empty) answer."""

    row_count: int
    responsible_conditions: List[str] = field(default_factory=list)
    relaxed_counts: List[Tuple[str, int]] = field(default_factory=list)
    text: str = ""


class AnswerExplainer:
    """Explain why a query returned nothing (or too much)."""

    def __init__(
        self,
        database: Database,
        lexicon: Optional[Lexicon] = None,
        executor: Optional[Executor] = None,
    ) -> None:
        self.database = database
        self.lexicon = lexicon or default_lexicon(database.schema)
        # An injected executor lets a session share one executor (and its
        # shape-plan/scan/subquery caches) between explanation and execution.
        self.executor = executor if executor is not None else Executor(database)

    # ------------------------------------------------------------------

    def explain(self, sql_or_statement, large_threshold: int = 1000) -> EmptyAnswerExplanation:
        if isinstance(sql_or_statement, str):
            if is_mutation(sql_or_statement):
                parse_select(sql_or_statement)  # raises for a non-SELECT: nothing runs
            result = self.executor.execute_sql(sql_or_statement)
        else:
            result = self.executor.execute_select(sql_or_statement)
        if result.row_count == 0 or result.row_count >= large_threshold:
            statement = (
                parse_select(sql_or_statement)
                if isinstance(sql_or_statement, str)
                else sql_or_statement
            )
            if result.row_count == 0:
                return self._explain_empty(statement)
            return self._explain_large(statement, result.row_count)
        explanation = EmptyAnswerExplanation(row_count=result.row_count)
        explanation.text = realize_paragraph(
            [f"The query returns {result.row_count} rows; no explanation is needed"]
        )
        return explanation

    # ------------------------------------------------------------------

    def _selection_conjuncts(self, statement: ast.SelectStatement) -> List[ast.Expression]:
        return [
            conjunct
            for conjunct in ast.conjuncts(statement.where)
            if ast.is_selection_condition(conjunct)
        ]

    def _relaxed_count(
        self, statement: ast.SelectStatement, conjuncts: List[ast.Expression]
    ) -> int:
        """Rows ``statement`` returns with only ``conjuncts`` in its WHERE."""
        relaxed = replace(statement, where=ast.conjoin(conjuncts))
        return self.executor.execute_sql(to_sql(relaxed)).row_count

    def _explain_empty(self, statement: ast.SelectStatement) -> EmptyAnswerExplanation:
        explanation = EmptyAnswerExplanation(row_count=0)
        all_conjuncts = list(ast.conjuncts(statement.where))
        selections = self._selection_conjuncts(statement)

        responsible: List[str] = []
        relaxed_counts: List[Tuple[str, int]] = []
        for conjunct in selections:
            relaxed = [c for c in all_conjuncts if c is not conjunct]
            count = self._relaxed_count(statement, relaxed)
            rendered = expression_to_sql(conjunct, top_level=True)
            relaxed_counts.append((rendered, count))
            if count > 0:
                responsible.append(rendered)

        pair_responsible: List[str] = []
        if not responsible and len(selections) >= 2:
            for index, first in enumerate(selections):
                for second in selections[index + 1 :]:
                    relaxed = [c for c in all_conjuncts if c is not first and c is not second]
                    if self._relaxed_count(statement, relaxed) > 0:
                        pair_responsible.append(
                            expression_to_sql(first, top_level=True)
                            + " together with "
                            + expression_to_sql(second, top_level=True)
                        )

        explanation.responsible_conditions = responsible or pair_responsible
        explanation.relaxed_counts = relaxed_counts

        sentences = ["The query returns no results"]
        if responsible:
            for rendered in responsible:
                count = dict(relaxed_counts).get(rendered, 0)
                noun = "row" if count == 1 else "rows"
                sentences.append(
                    f"the condition {rendered} is responsible for the failure:"
                    f" without it the query would return {count} {noun}"
                )
        elif pair_responsible:
            sentences.append(
                "no single condition explains the failure, but relaxing "
                + join_list(pair_responsible)
                + " would return results"
            )
        elif selections:
            sentences.append(
                "even relaxing the selection conditions yields nothing, so the"
                " tables involved simply contain no matching combinations"
            )
        else:
            sentences.append(
                "the query has no selection conditions, so the joined tables have"
                " no matching rows at all"
            )
        explanation.text = realize_paragraph(sentences)
        return explanation

    def _explain_large(
        self, statement: ast.SelectStatement, row_count: int
    ) -> EmptyAnswerExplanation:
        explanation = EmptyAnswerExplanation(row_count=row_count)
        sentences = [f"The query returns {row_count} rows, which may be more than intended"]

        bindings = [t.binding for t in statement.from_tables]
        join_conjuncts = [
            c for c in ast.conjuncts(statement.where) if ast.is_join_condition(c)
        ]
        joined = set()
        for conjunct in join_conjuncts:
            for column in ast.column_refs(conjunct):
                if column.table:
                    joined.add(column.table.lower())
        unjoined = [b for b in bindings if b.lower() not in joined and len(bindings) > 1]
        if unjoined:
            sentences.append(
                "the tables "
                + join_list(unjoined)
                + " are not connected to the rest of the query, producing a cross"
                " product"
            )
        if not self._selection_conjuncts(statement):
            sentences.append("the query has no selective conditions to narrow the answer")
        explanation.responsible_conditions = unjoined
        explanation.text = realize_paragraph(sentences)
        return explanation
