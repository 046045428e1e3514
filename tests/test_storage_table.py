"""Tests for tables, indexes and constraint enforcement."""

import pytest

from repro.catalog.attribute import Attribute
from repro.catalog.relation import Relation
from repro.catalog.types import DataType
from repro.errors import (
    NotNullViolationError,
    PrimaryKeyViolationError,
    TypeMismatchError,
    UnknownAttributeError,
)
from repro.storage.index import HashIndex
from repro.storage.table import Table


def movie_relation() -> Relation:
    return Relation(
        "MOVIES",
        [
            Attribute("id", DataType.INTEGER, primary_key=True),
            Attribute("title", DataType.TEXT, heading=True, nullable=False),
            Attribute("year", DataType.INTEGER),
        ],
    )


@pytest.fixture
def table() -> Table:
    table = Table(movie_relation())
    table.insert({"id": 1, "title": "Match Point", "year": 2005})
    table.insert({"id": 2, "title": "Troy", "year": 2004})
    return table


class TestInsert:
    def test_row_count(self, table):
        assert table.row_count == 2

    def test_missing_columns_default_to_null(self):
        table = Table(movie_relation())
        table.insert({"id": 5, "title": "X"})
        assert list(table.rows())[0]["year"] is None

    def test_unknown_column_rejected(self, table):
        with pytest.raises(UnknownAttributeError):
            table.insert({"id": 9, "title": "Y", "rating": 5})

    def test_primary_key_violation(self, table):
        with pytest.raises(PrimaryKeyViolationError):
            table.insert({"id": 1, "title": "Duplicate"})

    def test_not_null_violation(self, table):
        with pytest.raises(NotNullViolationError):
            table.insert({"id": 3, "title": None})

    def test_type_mismatch(self, table):
        with pytest.raises(TypeMismatchError):
            table.insert({"id": "three", "title": "Z"})

    def test_coercion_from_text(self, table):
        table.insert({"id": "3", "title": "Seven", "year": "1995"}, coerce=True)
        assert table.lookup(("id",), (3,))[0]["year"] == 1995

    def test_insert_many(self):
        table = Table(movie_relation())
        ids = table.insert_many(
            [{"id": 1, "title": "A"}, {"id": 2, "title": "B"}]
        )
        assert len(ids) == 2


class TestDeleteUpdate:
    def test_delete_rows(self, table):
        rowids = [rowid for rowid, row in table.rows_with_ids() if row["id"] == 1]
        assert table.delete_rows(rowids) == 1
        assert table.row_count == 1

    def test_delete_missing_rowid_is_noop(self, table):
        assert table.delete_rows([999]) == 0

    def test_update_rows(self, table):
        rowids = [rowid for rowid, row in table.rows_with_ids() if row["id"] == 2]
        assert table.update_rows(rowids, {"year": 2010}) == 1
        assert table.lookup(("id",), (2,))[0]["year"] == 2010

    def test_update_to_duplicate_key_rejected(self, table):
        rowids = [rowid for rowid, row in table.rows_with_ids() if row["id"] == 2]
        with pytest.raises(PrimaryKeyViolationError):
            table.update_rows(rowids, {"id": 1})

    def test_update_keeps_indexes_consistent(self, table):
        rowids = [rowid for rowid, row in table.rows_with_ids() if row["id"] == 2]
        table.update_rows(rowids, {"id": 20})
        assert table.lookup(("id",), (20,))
        assert not table.lookup(("id",), (2,))

    def test_truncate(self, table):
        table.truncate()
        assert table.row_count == 0
        table.insert({"id": 1, "title": "again"})
        assert table.row_count == 1


class TestIndexes:
    def test_lookup_uses_secondary_index(self, table):
        table.create_index("by_year", ["year"])
        assert [r["title"] for r in table.lookup(("year",), (2004,))] == ["Troy"]

    def test_lookup_without_index_scans(self, table):
        assert [r["title"] for r in table.lookup(("title",), ("Troy",))] == ["Troy"]

    def test_unique_index_nulls_do_not_collide(self):
        index = HashIndex("u", ["a"], unique=True)
        assert not index.would_violate_unique((None,))

    def test_index_remove(self):
        index = HashIndex("i", ["a"])
        index.add((1,), 10)
        index.remove((1,), 10)
        assert index.lookup((1,)) == ()
        assert len(index) == 0

    def test_has_key(self, table):
        assert table.has_key(("id",), (1,))
        assert not table.has_key(("id",), (99,))
