"""Tests for the database layer: FK enforcement, bulk loads, loaders."""

import pytest

from repro.catalog import SchemaBuilder
from repro.datasets import movie_database, movie_schema
from repro.engine import Executor
from repro.errors import ForeignKeyViolationError, UnknownTableError
from repro.storage import Database, dump_records, load_csv_text, load_records


@pytest.fixture
def database() -> Database:
    return movie_database()


class TestDatabaseBasics:
    def test_table_lookup_case_insensitive(self, database):
        assert database.table("movies").name == "MOVIES"

    def test_unknown_table(self, database):
        with pytest.raises(UnknownTableError):
            database.table("NOPE")

    def test_total_rows(self, database):
        assert len(database.table("MOVIES")) == 9
        assert len(database.table("DIRECTOR")) == 4
        assert database.total_rows == sum(len(table) for table in database.tables) == 57


class TestForeignKeys:
    def test_insert_with_missing_parent_rejected(self, database):
        with pytest.raises(ForeignKeyViolationError):
            database.insert("CAST", {"mid": 999, "aid": 1, "role": "x"})

    def test_insert_with_null_fk_allowed(self):
        schema = (
            SchemaBuilder("s")
            .relation("P").column("id", "integer", primary_key=True).done()
            .relation("C").column("id", "integer", primary_key=True).column("pid", "integer").done()
            .foreign_key("C", ["pid"], "P", ["id"])
            .build()
        )
        database = Database(schema)
        database.insert("C", {"id": 1, "pid": None})
        assert len(database.table("C")) == 1

    def test_delete_parent_with_children_rejected(self, database):
        with pytest.raises(ForeignKeyViolationError):
            database.delete_where("MOVIES", lambda row: row["id"] == 1)

    def test_delete_leaf_rows_allowed(self, database):
        removed = database.delete_where("GENRE", lambda row: row["genre"] == "romance")
        assert removed == 2

    def test_update_fk_to_missing_parent_rejected(self, database):
        with pytest.raises(ForeignKeyViolationError):
            database.update_where("CAST", lambda row: True, {"mid": 12345})

    def test_update_fk_violation_names_the_update(self, database):
        with pytest.raises(ForeignKeyViolationError, match=r"^update CAST violates"):
            database.update_where("CAST", lambda row: row["mid"] == 4, {"mid": 12345})

    def test_update_matching_no_row_skips_fk_checks(self, database):
        log = []
        database.attach_wal(log)
        before = dump_records(database)
        updated = database.update_where("CAST", lambda row: row["mid"] == -1, {"mid": 999999})
        assert updated == 0
        assert log == []
        assert dump_records(database) == before

    def test_update_moving_a_referenced_key_rejected(self, database):
        log = []
        database.attach_wal(log)
        before = dump_records(database)
        with pytest.raises(ForeignKeyViolationError, match=r"^cannot update MOVIES"):
            database.update_where("MOVIES", lambda row: row["id"] == 4, {"id": 987654})
        assert log == []
        assert dump_records(database) == before
        orphans = Executor(database).execute_sql(
            "select count(*) from CAST c where not exists"
            " (select * from MOVIES m where m.id = c.mid)"
        )
        assert orphans.to_tuples() == [(0,)]

    def test_update_keeping_a_referenced_key_allowed(self, database):
        assert database.update_where("MOVIES", lambda row: row["id"] == 4, {"year": 2005}) == 1
        assert database.update_where("MOVIES", lambda row: row["id"] == 4, {"id": 4}) == 1

    def test_update_moving_an_unreferenced_key_allowed(self, database):
        database.insert("MOVIES", {"id": 555, "title": "Childless", "year": 2001})
        assert database.update_where("MOVIES", lambda row: row["id"] == 555, {"id": 556}) == 1
        assert [row["title"] for row in database.table("MOVIES").lookup(["id"], [556])] == [
            "Childless"
        ]

    def test_replayed_update_moving_a_referenced_key_rejected(self, database):
        rowid = next(
            rowid for rowid, row in database.table("MOVIES").rows_with_ids() if row["id"] == 4
        )
        before = dump_records(database)
        assert database.replay([("update", "MOVIES", [rowid], {"id": 987654})]) == (0, 1)
        assert dump_records(database) == before

    @staticmethod
    def _composite_database():
        schema = (
            SchemaBuilder("s")
            .relation("P")
            .column("x", "integer", primary_key=True)
            .column("y", "integer", primary_key=True)
            .done()
            .relation("C")
            .column("id", "integer", primary_key=True)
            .column("a", "integer")
            .column("b", "integer")
            .done()
            .foreign_key("C", ["a", "b"], "P", ["x", "y"])
            .build()
        )
        database = Database(schema)
        database.insert("P", {"x": 1, "y": 1})
        database.insert("P", {"x": 2, "y": 1})
        database.insert("C", {"id": 1, "a": 1, "b": 1})
        return database

    def test_update_of_one_composite_fk_column_checks_the_whole_key(self):
        database = self._composite_database()
        with pytest.raises(ForeignKeyViolationError):
            database.insert("C", {"id": 2, "a": 999, "b": 1})
        log = []
        database.attach_wal(log)
        before = dump_records(database)
        with pytest.raises(ForeignKeyViolationError, match=r"^update C violates"):
            database.update_where("C", lambda row: True, {"a": 999})
        assert log == []
        assert dump_records(database) == before
        # The unassigned column keeps the row's value: (2, 1) has a parent.
        assert database.update_where("C", lambda row: True, {"a": 2}) == 1
        assert [row["a"] for row in database.table("C").rows()] == [2]

    def test_replayed_update_of_one_composite_fk_column_rejected(self):
        database = self._composite_database()
        rowid = next(rowid for rowid, _row in database.table("C").rows_with_ids())
        before = dump_records(database)
        assert database.replay([("update", "C", [rowid], {"a": 999})]) == (0, 1)
        assert dump_records(database) == before

    def test_enforcement_can_be_disabled(self):
        database = Database(movie_schema(), enforce_foreign_keys=False)
        database.insert("CAST", {"mid": 999, "aid": 999, "role": "ghost"})
        assert len(database.table("CAST")) == 1

    def test_load_orders_parents_first(self):
        database = Database(movie_schema())
        rows = dump_records(movie_database())
        # Pass children before parents on purpose; load() must reorder.
        shuffled = {
            "CAST": rows["CAST"],
            "MOVIES": rows["MOVIES"],
            "ACTOR": rows["ACTOR"],
        }
        database.load(shuffled)
        assert len(database.table("CAST")) == len(rows["CAST"])


class TestLoaders:
    def test_load_csv_text(self):
        database = Database(movie_schema())
        count = load_csv_text(
            database,
            "MOVIES",
            "id,title,year\n1,Match Point,2005\n2,Troy,2004\n",
        )
        assert count == 2
        assert database.table("MOVIES").lookup(("id",), (1,))[0]["title"] == "Match Point"

    def test_load_csv_empty_value_becomes_null(self):
        database = Database(movie_schema())
        load_csv_text(database, "MOVIES", "id,title,year\n1,Unknown,\n")
        assert database.table("MOVIES").lookup(("id",), (1,))[0]["year"] is None

    def test_load_records_and_dump_records_round_trip(self):
        database = Database(movie_schema())
        records = {"MOVIES": [{"id": 1, "title": "A", "year": 2000}]}
        load_records(database, records)
        dumped = dump_records(database)
        assert dumped["MOVIES"] == [{"id": 1, "title": "A", "year": 2000}]

    def test_load_csv_file(self, tmp_path):
        from repro.storage import load_csv_file

        path = tmp_path / "movies.csv"
        path.write_text("id,title,year\n7,File Movie,1999\n", encoding="utf-8")
        database = Database(movie_schema())
        assert load_csv_file(database, "MOVIES", path) == 1
