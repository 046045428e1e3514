"""Integration tests: the paper's target narratives for Q1-Q9 and Section 3.1."""

import pytest

from repro.content import employee_spec, movie_spec
from repro.datasets import (
    MANAGER_QUERY,
    PAPER_NARRATIVES,
    PAPER_QUERIES,
    employee_schema,
    movie_schema,
)
from repro.query_nl import QueryTranslator
from repro.query_nl.translator import translate_query
from repro.querygraph import QueryCategory


@pytest.fixture(scope="module")
def translator() -> QueryTranslator:
    schema = movie_schema()
    return QueryTranslator(schema, spec=movie_spec(schema))


class TestExactPaperNarratives:
    def test_q1_verbose_and_concise(self, translator):
        translation = translator.translate(PAPER_QUERIES["Q1"])
        assert translation.text == PAPER_NARRATIVES["Q1"]
        assert translation.concise == PAPER_NARRATIVES["Q1_concise"]

    def test_q2(self, translator):
        assert translator.translate(PAPER_QUERIES["Q2"]).text == PAPER_NARRATIVES["Q2"]

    def test_q3_pairs_phrase(self, translator):
        text = translator.translate(PAPER_QUERIES["Q3"]).text
        assert text.startswith("Find pairs of actors")
        assert text.endswith("the same movie")

    def test_q4(self, translator):
        assert translator.translate(PAPER_QUERIES["Q4"]).text == PAPER_NARRATIVES["Q4"]

    def test_q5_concise_matches_paper(self, translator):
        translation = translator.translate(PAPER_QUERIES["Q5"])
        assert PAPER_NARRATIVES["Q5"] in translation.variants.values()
        assert translation.rewritten_sql is not None
        assert "CAST" in translation.rewritten_sql

    def test_q6(self, translator):
        assert translator.translate(PAPER_QUERIES["Q6"]).text == PAPER_NARRATIVES["Q6"]

    def test_q7(self, translator):
        assert translator.translate(PAPER_QUERIES["Q7"]).text == PAPER_NARRATIVES["Q7"]

    def test_q8(self, translator):
        assert translator.translate(PAPER_QUERIES["Q8"]).text == PAPER_NARRATIVES["Q8"]

    def test_q9(self, translator):
        assert translator.translate(PAPER_QUERIES["Q9"]).text == PAPER_NARRATIVES["Q9"]

    def test_translate_query_is_the_one_shot_translator(self, translator):
        schema = movie_schema()
        one_shot = translate_query(schema, PAPER_QUERIES["Q2"], spec=movie_spec(schema))
        assert one_shot.text == PAPER_NARRATIVES["Q2"]
        assert one_shot.text == translator.translate(PAPER_QUERIES["Q2"]).text
        plain = translate_query(schema, PAPER_QUERIES["Q2"])
        assert plain.text == QueryTranslator(schema).translate(PAPER_QUERIES["Q2"]).text

    def test_manager_query_shape(self):
        schema = employee_schema()
        translation = QueryTranslator(schema, spec=employee_spec(schema)).translate(MANAGER_QUERY)
        assert translation.text == (
            "Find the names of employees whose salary is greater than the salary"
            " of their manager"
        )


class TestTranslationMetadata:
    @pytest.mark.parametrize(
        "name,category",
        [
            ("Q1", QueryCategory.PATH),
            ("Q2", QueryCategory.SUBGRAPH),
            ("Q3", QueryCategory.GRAPH),
            ("Q4", QueryCategory.GRAPH),
            ("Q5", QueryCategory.NESTED),
            ("Q6", QueryCategory.NESTED),
            ("Q7", QueryCategory.AGGREGATE),
            ("Q8", QueryCategory.IMPOSSIBLE),
            ("Q9", QueryCategory.IMPOSSIBLE),
        ],
    )
    def test_categories_attached(self, translator, name, category):
        assert translator.translate(PAPER_QUERIES[name]).category is category

    def test_notes_explain_the_choice(self, translator):
        notes = " ".join(translator.translate(PAPER_QUERIES["Q6"]).notes)
        assert "division" in notes

    def test_graph_attached_to_translation(self, translator):
        translation = translator.translate(PAPER_QUERIES["Q2"])
        assert translation.graph is not None
        assert len(translation.graph.classes) == 6

    def test_every_translation_starts_with_find(self, translator):
        for name, sql in PAPER_QUERIES.items():
            assert translator.translate(sql).text.startswith("Find"), name

    def test_variants_dictionary(self, translator):
        variants = translator.translate(PAPER_QUERIES["Q1"]).variants
        assert set(variants) == {"default", "concise"}
