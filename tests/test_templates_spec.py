"""Tests for template specs: instantiation, slots, list templates."""

import datetime

import pytest

from repro.errors import TemplateInstantiationError
from repro.templates.spec import ListTemplate, slot, template


class TestTemplateInstantiation:
    def test_simple_concatenation(self):
        label = template(slot("DNAME"), " was born in ", slot("BLOCATION"))
        rendered = label.instantiate({"DNAME": "Woody Allen", "BLOCATION": "Brooklyn"})
        assert rendered == "Woody Allen was born in Brooklyn"

    def test_case_insensitive_values(self):
        label = template(slot("TITLE"))
        assert label.instantiate({"title": "Troy"}) == "Troy"

    def test_qualified_slot_matches_qualified_value(self):
        label = template(slot("MOVIES.title"))
        assert label.instantiate({"MOVIES.title": "Troy"}) == "Troy"

    def test_qualified_value_matched_by_suffix(self):
        label = template(slot("title"))
        assert label.instantiate({"MOVIES.title": "Troy"}) == "Troy"

    def test_date_rendering_matches_paper(self):
        label = template(slot("BDATE"))
        assert label.instantiate({"BDATE": datetime.date(1935, 12, 1)}) == "December 1, 1935"

    def test_missing_value_strict_raises(self):
        label = template(slot("MISSING"))
        with pytest.raises(TemplateInstantiationError):
            label.instantiate({})

    def test_missing_value_lenient_renders_empty(self):
        label = template("x", slot("MISSING"), "y")
        assert label.instantiate({}, strict=False) == "xy"

    def test_none_value_renders_unknown(self):
        label = template(slot("YEAR"))
        assert label.instantiate({"YEAR": None}) == "unknown"

    def test_verb_metadata(self):
        label = template(slot("A"), " was born", verb="was born")
        assert label.predicate_verb == "was born"


class TestListTemplate:
    @pytest.fixture
    def movie_list(self) -> ListTemplate:
        item = template(slot("title"), " (", slot("year"), ")")
        return ListTemplate(
            name="MOVIE_LIST",
            item=item,
            last_item=item,
            separator=", ",
            last_separator=", and ",
            pair_separator=" and ",
        )

    def test_empty_list(self, movie_list):
        assert movie_list.instantiate([]) == ""

    def test_single_item(self, movie_list):
        assert movie_list.instantiate([{"title": "Troy", "year": 2004}]) == "Troy (2004)"

    def test_two_items_use_pair_separator(self, movie_list):
        rendered = movie_list.instantiate(
            [{"title": "A", "year": 2000}, {"title": "B", "year": 2001}]
        )
        assert rendered == "A (2000) and B (2001)"

    def test_three_items_match_paper_punctuation(self, movie_list):
        rendered = movie_list.instantiate(
            [
                {"title": "Match Point", "year": 2005},
                {"title": "Melinda and Melinda", "year": 2004},
                {"title": "Anything Else", "year": 2003},
            ]
        )
        assert rendered == (
            "Match Point (2005), Melinda and Melinda (2004), and Anything Else (2003)"
        )

    def test_custom_last_item_without_pair_separator(self):
        lt = ListTemplate(
            name="L",
            item=template(slot("a"), ", "),
            last_item=template("and ", slot("a"), "."),
            separator="",
            last_separator="",
        )
        rendered = lt.instantiate([{"a": "x"}, {"a": "y"}, {"a": "z"}])
        assert rendered == "x, y, and z."
