"""Document planning: ordering, length budgets and final assembly.

Section 2.2 closes with the observation that "meaningful and interesting
answers are short" and proposes limiting the text "either with structural
constraints affecting the traversal ... or with some notion of ranking of
the relations and tuples involved".  The document planner is where those
limits are enforced: sentences arrive with weights (inherited from
relation/attribute/tuple ranking) and the planner keeps the most important
ones within the requested budget.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.nlg.clause import Clause
from repro.nlg.realize import realize_sentence, word_count


@dataclass(frozen=True)
class LengthBudget:
    """Limits applied to a generated narrative."""

    max_sentences: Optional[int] = None
    max_words: Optional[int] = None

    @property
    def unlimited(self) -> bool:
        return self.max_sentences is None and self.max_words is None


@dataclass
class PlannedSentence:
    """A realised sentence plus the weight used when trimming to a budget."""

    text: str
    weight: float = 1.0
    about: Optional[str] = None

    @property
    def words(self) -> int:
        return word_count(self.text)


@dataclass
class DocumentPlan:
    """An ordered list of planned sentences with budget-aware assembly."""

    sentences: List[PlannedSentence] = field(default_factory=list)

    def add_clause(self, clause: Clause) -> None:
        text = realize_sentence(clause)
        if text:
            self.sentences.append(
                PlannedSentence(text=text, weight=clause.weight, about=clause.about)
            )

    def add_text(self, text: str, weight: float = 1.0, about: Optional[str] = None) -> None:
        realised = realize_sentence(text)
        if realised:
            self.sentences.append(PlannedSentence(text=realised, weight=weight, about=about))

    def extend_clauses(self, clauses: Sequence[Clause]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------

    def trimmed(self, budget: LengthBudget) -> List[PlannedSentence]:
        """The sentences that survive the budget.

        Trimming drops the lightest sentences first but never reorders the
        survivors — narrative order is part of the meaning.
        """
        if budget.unlimited:
            return list(self.sentences)
        keep = list(self.sentences)

        if budget.max_sentences is not None and len(keep) > budget.max_sentences:
            keep = self._drop_lightest(keep, len(keep) - budget.max_sentences)

        if budget.max_words is not None:
            while keep and sum(s.words for s in keep) > budget.max_words and len(keep) > 1:
                keep = self._drop_lightest(keep, 1)
        return keep

    def _drop_lightest(
        self, sentences: List[PlannedSentence], count: int
    ) -> List[PlannedSentence]:
        if count <= 0:
            return sentences
        # Identify the indices of the `count` lightest sentences (stable:
        # later sentences are dropped before earlier ones of equal weight).
        indexed = sorted(
            range(len(sentences)),
            key=lambda i: (sentences[i].weight, -i),
        )
        to_drop = set(indexed[:count])
        return [s for i, s in enumerate(sentences) if i not in to_drop]

    # ------------------------------------------------------------------

    def render(self, budget: LengthBudget = LengthBudget()) -> str:
        """The final narrative text under the given budget."""
        return " ".join(s.text for s in self.trimmed(budget))

    def __len__(self) -> int:
        return len(self.sentences)


# ---------------------------------------------------------------------------
# Streaming collection
# ---------------------------------------------------------------------------

#: A streamed candidate: the realised sentence plus an upper bound on the
#: weight of every sentence the producer could still yield after this one.
StreamedSentence = Tuple[PlannedSentence, float]


def collect_streaming(
    candidates: Iterable[StreamedSentence], budget: LengthBudget
) -> DocumentPlan:
    """Consume a sentence stream under a budget, stopping as early as possible.

    Maintains the ``max_sentences`` trim online: a min-heap keyed
    ``(weight, -arrival)`` holds the current survivors, so an overflowing
    insert evicts exactly the sentence :meth:`DocumentPlan._drop_lightest`
    would drop (lightest first, later arrivals before earlier ones on
    ties).  Once the heap is full and the producer's bound says no future
    sentence can outweigh the lightest survivor, the stream is abandoned —
    that is what makes ``ContentNarrator.narrate_relation`` on a large
    relation O(budget) clause productions instead of O(rows).

    The returned plan's ``render(budget)`` is byte-identical to the eager
    pipeline (produce everything, then trim): the survivor set equals the
    offline sentence trim, and the word trim runs afterwards on exactly
    that set, as it does eagerly.
    """
    plan = DocumentPlan()
    max_sentences = budget.max_sentences
    if max_sentences is None:
        plan.sentences = [sentence for sentence, _bound in candidates]
        return plan
    if max_sentences <= 0:
        return plan

    heap: List[Tuple[float, int, int, PlannedSentence]] = []
    arrival = 0
    for sentence, bound in candidates:
        heapq.heappush(heap, (sentence.weight, -arrival, arrival, sentence))
        arrival += 1
        if len(heap) > max_sentences:
            heapq.heappop(heap)
        if len(heap) == max_sentences and heap[0][0] >= bound:
            break
    plan.sentences = [entry[3] for entry in sorted(heap, key=lambda entry: entry[2])]
    return plan
