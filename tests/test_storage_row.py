"""Tests for repro.storage.row."""

import pytest

from repro.storage.row import Row


class TestRowLookup:
    def test_exact_key(self):
        row = Row({"m.title": "Troy"})
        assert row["m.title"] == "Troy"

    def test_case_insensitive_key(self):
        row = Row({"m.Title": "Troy"})
        assert row["M.TITLE"] == "Troy"

    def test_unqualified_suffix_lookup(self):
        row = Row({"m.title": "Troy", "m.year": 2004})
        assert row["title"] == "Troy"

    def test_ambiguous_suffix_returns_none_via_resolve(self):
        row = Row({"m.id": 1, "a.id": 2})
        assert row.resolve_key("id") is None
        assert row.is_ambiguous("id")

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            Row({"a": 1})["b"]

    def test_get_with_default(self):
        assert Row({"a": 1}).get("missing", 42) == 42

    def test_contains(self):
        row = Row({"m.title": "Troy"})
        assert "title" in row
        assert "year" not in row


class TestRowConstruction:
    def test_merged_right_side_wins(self):
        merged = Row({"a": 1, "b": 2}).merged(Row({"b": 3, "c": 4}))
        assert merged.as_dict() == {"a": 1, "b": 3, "c": 4}

    def test_prefixed(self):
        row = Row({"title": "Troy", "year": 2004}).prefixed("m")
        assert set(row.keys()) == {"m.title", "m.year"}

    def test_prefixed_replaces_existing_prefix(self):
        row = Row({"x.title": "Troy"}).prefixed("m")
        assert set(row.keys()) == {"m.title"}


class TestRowEquality:
    def test_equal_to_dict(self):
        assert Row({"a": 1}) == {"a": 1}

    def test_equal_rows_hash_equal(self):
        assert hash(Row({"a": 1, "b": "x"})) == hash(Row({"b": "x", "a": 1}))

    def test_hash_with_list_values(self):
        assert isinstance(hash(Row({"a": [1, 2]})), int)

    def test_len_and_iter(self):
        row = Row({"a": 1, "b": 2})
        assert len(row) == 2
        assert set(iter(row)) == {"a", "b"}
