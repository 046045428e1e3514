"""Tests for the NLG core: clauses, aggregation, realisation, planning."""

from repro.nlg import (
    Clause,
    DocumentPlan,
    LengthBudget,
    attach_relative,
    merge_clauses,
    realize_paragraph,
    realize_sentence,
    sentence_count,
    word_count,
)


class TestClause:
    def test_render_joins_parts(self):
        clause = Clause("Woody Allen", "was born", ("in Brooklyn", "on December 1, 1935"))
        assert clause.render() == "Woody Allen was born in Brooklyn on December 1, 1935"

    def test_with_extra_complements(self):
        clause = Clause("X", "is", ("a",)).with_extra_complements(("b",))
        assert clause.complements == ("a", "b")

    def test_entity_phrase_with_relative(self):
        phrase = attach_relative("the director D1", "was born in Italy")
        assert phrase.render() == "the director D1 who was born in Italy"


class TestAggregation:
    def test_merge_clauses_same_subject_and_verb(self):
        merged = merge_clauses(
            [
                Clause("Woody Allen", "was born", ("in Brooklyn, New York, USA",)),
                Clause("Woody Allen", "was born", ("on December 1, 1935",)),
            ]
        )
        assert len(merged) == 1
        assert merged[0].render() == (
            "Woody Allen was born in Brooklyn, New York, USA on December 1, 1935"
        )

    def test_merge_clauses_different_verbs_stay_apart(self):
        merged = merge_clauses(
            [Clause("X", "was born", ("a",)), Clause("X", "directed", ("b",))]
        )
        assert len(merged) == 2

    def test_merge_clauses_without_verb_never_merge(self):
        merged = merge_clauses([Clause("same text"), Clause("same text")])
        assert len(merged) == 2

    def test_merge_clauses_case_insensitive_subject(self):
        merged = merge_clauses(
            [Clause("X", "is", ("a",)), Clause("x", "is", ("b",))]
        )
        assert len(merged) == 1


class TestRealize:
    def test_realize_sentence_capitalises_and_punctuates(self):
        assert realize_sentence("hello world") == "Hello world."

    def test_realize_sentence_keeps_existing_punctuation(self):
        assert realize_sentence("Done!") == "Done!"

    def test_realize_paragraph_skips_empty(self):
        assert realize_paragraph(["one", "", "two"]) == "One. Two."

    def test_word_and_sentence_count(self):
        assert word_count("one two three.") == 3
        assert sentence_count("A. B? C!") == 3


class TestDocumentPlan:
    def test_render_unbounded(self):
        plan = DocumentPlan()
        plan.add_text("first sentence")
        plan.add_text("second sentence")
        assert plan.render() == "First sentence. Second sentence."

    def test_max_sentences_drops_lightest(self):
        plan = DocumentPlan()
        plan.add_text("important", weight=5.0)
        plan.add_text("unimportant detail", weight=1.0)
        plan.add_text("also important", weight=4.0)
        rendered = plan.render(LengthBudget(max_sentences=2))
        assert "unimportant" not in rendered
        assert rendered.index("Important") < rendered.index("Also important")

    def test_max_words_budget(self):
        plan = DocumentPlan()
        plan.add_text("short", weight=1.0)
        plan.add_text("a much longer sentence with many words in it", weight=0.5)
        rendered = plan.render(LengthBudget(max_words=4))
        assert rendered == "Short."

    def test_budget_never_drops_last_sentence(self):
        plan = DocumentPlan()
        plan.add_text("a very long single sentence that exceeds the word budget")
        assert plan.render(LengthBudget(max_words=2))

    def test_add_clause(self):
        plan = DocumentPlan()
        plan.add_clause(Clause("Woody Allen", "directed", ("three movies",)))
        assert plan.render() == "Woody Allen directed three movies."
