"""Differential suite for the pluggable storage engines.

The dict-row engine (``Table``) is the storage oracle: every test here
runs the same queries — the paper's Q1–Q9, the 50-query generated
corpus, and randomized DML interleavings — against the paged-heap and
columnar engines and asserts byte-identical results, in both the
compiled and (via the CI oracle job's ``REPRO_ORACLE=1`` run)
interpreted configurations.  The paged engine additionally runs with a
buffer pool far smaller than the dataset, so eviction and write-back
are on the query path, not just in unit tests.
"""

import pickle
import random

import pytest

from repro.catalog.attribute import Attribute
from repro.catalog.relation import Relation
from repro.catalog.types import DataType
from repro.content.ranking import rank_tuples, tracker_for
from repro.datasets import PAPER_QUERIES, get_domain, movie_database
from repro.datasets.workload import generate_workload
from repro.engine import executor as executor_module
from repro.engine.executor import Executor
from repro.errors import EvaluationError, ReproError
from repro.storage import (
    ColumnarStorage,
    Database,
    DurabilityConfig,
    DurabilityManager,
    PagedHeapStorage,
    StorageConfig,
    Table,
    TableStorage,
    create_storage,
    dump_records,
)
from repro.storage.engine.paged import (
    MAX_PAGE_SIZE,
    MIN_PAGE_SIZE,
    BufferManager,
    DiskManager,
    SlottedPage,
)

ENGINES = ["rows", "paged", "columnar"]

#: A paged configuration whose pool is much smaller than any test
#: dataset: scans continuously evict and fault pages back in.
TINY_POOL = {"page_size": 512, "buffer_pool_pages": 4}


def engine_config(engine: str) -> StorageConfig:
    if engine == "paged":
        return StorageConfig(default_engine="paged", **TINY_POOL)
    return StorageConfig(default_engine=engine)


def database_for(engine: str) -> Database:
    return movie_database().with_storage(engine_config(engine))


def rows_of(result):
    return [dict(row.raw) for row in result.rows]


def movie_relation() -> Relation:
    return Relation(
        "MOVIES",
        [
            Attribute("id", DataType.INTEGER, primary_key=True),
            Attribute("title", DataType.TEXT, heading=True, nullable=False),
            Attribute("year", DataType.INTEGER),
        ],
    )


# ----------------------------------------------------------------------
# Protocol conformance
# ----------------------------------------------------------------------


class TestProtocol:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_engine_satisfies_the_protocol(self, engine):
        table = create_storage(movie_relation(), engine_config(engine))
        assert isinstance(table, TableStorage)

    def test_rows_engine_is_the_historical_table(self):
        table = create_storage(movie_relation(), engine_config("rows"))
        assert isinstance(table, Table)
        assert repr(table) == "Table(MOVIES, 0 rows)"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_name_in_stats(self, engine):
        table = create_storage(movie_relation(), engine_config(engine))
        assert table.stats()["engine"] == engine

    @pytest.mark.parametrize("engine", ENGINES)
    def test_has_row_follows_inserts_and_deletes(self, engine):
        table = create_storage(movie_relation(), engine_config(engine))
        kept = table.insert({"id": 1, "title": "Troy", "year": 2004})
        doomed = table.insert({"id": 2, "title": "Seven", "year": 1995})
        assert table.has_row(kept) and table.has_row(doomed)
        table.delete_rows([doomed])
        assert table.has_row(kept) and not table.has_row(doomed)
        assert not table.has_row(doomed + 1)

    def test_storage_config_is_picklable(self):
        config = StorageConfig(default_engine="columnar", engines={"CAST": "paged"})
        assert pickle.loads(pickle.dumps(config)) == config


# ----------------------------------------------------------------------
# StorageConfig validation
# ----------------------------------------------------------------------


class TestStorageConfig:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            StorageConfig(default_engine="btree")

    def test_unknown_per_relation_engine_rejected(self):
        with pytest.raises(ValueError):
            StorageConfig(engines={"MOVIES": "lsm"})

    def test_page_size_bounds(self):
        with pytest.raises(ValueError):
            StorageConfig(page_size=MIN_PAGE_SIZE - 1)
        with pytest.raises(ValueError):
            StorageConfig(page_size=MAX_PAGE_SIZE + 1)

    def test_pool_must_be_positive(self):
        with pytest.raises(ValueError):
            StorageConfig(buffer_pool_pages=0)

    def test_engine_for_is_case_insensitive(self):
        config = StorageConfig(engines={"MOVIES": "columnar"})
        assert config.engine_for("movies") == "columnar"
        assert config.engine_for("CAST") == "rows"

    def test_from_env_defaults(self):
        assert StorageConfig.from_env(environ={}) == StorageConfig()

    def test_from_env_reads_engine_and_knobs(self):
        config = StorageConfig.from_env(
            environ={
                "REPRO_STORAGE_ENGINE": "paged",
                "REPRO_STORAGE_PAGE_SIZE": "1024",
                "REPRO_STORAGE_POOL_PAGES": "8",
            }
        )
        assert config.default_engine == "paged"
        assert config.page_size == 1024
        assert config.buffer_pool_pages == 8


# ----------------------------------------------------------------------
# Page / disk / buffer unit tests
# ----------------------------------------------------------------------


class TestSlottedPage:
    def test_insert_read_round_trip(self):
        page = SlottedPage(bytearray(MIN_PAGE_SIZE), MIN_PAGE_SIZE)
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"

    def test_full_page_refuses_insert(self):
        page = SlottedPage(bytearray(MIN_PAGE_SIZE), MIN_PAGE_SIZE)
        while page.insert(b"x" * 16) is not None:
            pass
        assert page.insert(b"x" * 16) is None

    def test_delete_kills_the_slot(self):
        page = SlottedPage(bytearray(MIN_PAGE_SIZE), MIN_PAGE_SIZE)
        slot = page.insert(b"doomed")
        page.delete(slot)
        assert page.read(slot) is None


class TestBufferManager:
    def test_eviction_writes_dirty_pages_back(self):
        disk = DiskManager(page_size=MIN_PAGE_SIZE)
        pool = BufferManager(disk, capacity=2)
        pages = [disk.allocate() for _ in range(3)]
        for index, page_id in enumerate(pages):
            buffer = pool.pin(page_id)
            buffer[0] = index + 1
            pool.unpin(page_id, dirty=True)
        stats = pool.stats()
        assert stats["evictions"] >= 1
        assert stats["write_backs"] >= 1
        # Evicted content survives the round trip through the heap file.
        assert pool.pin(pages[0])[0] == 1
        pool.unpin(pages[0], dirty=False)
        disk.close()

    def test_pinned_pages_are_not_evicted(self):
        disk = DiskManager(page_size=MIN_PAGE_SIZE)
        pool = BufferManager(disk, capacity=1)
        first = disk.allocate()
        second = disk.allocate()
        buffer = pool.pin(first)
        buffer[0] = 42
        # The only frame is pinned: the pool must grow, not evict it.
        pool.pin(second)
        pool.unpin(second, dirty=False)
        assert pool.stats()["overflows"] >= 1
        assert buffer[0] == 42
        pool.unpin(first, dirty=False)
        disk.close()

    def test_flush_writes_dirty_pages_back_and_keeps_them_resident(self):
        disk = DiskManager(page_size=MIN_PAGE_SIZE)
        pool = BufferManager(disk, capacity=4)
        pages = [disk.allocate() for _ in range(2)]
        for index, page_id in enumerate(pages):
            pool.pin(page_id)[0] = index + 1
            pool.unpin(page_id, dirty=True)
        assert disk.page_count == 2 and pool.resident == 2
        assert disk.read(pages[1])[0] == 0  # only in the pool so far
        pool.flush()
        assert [disk.read(page_id)[0] for page_id in pages] == [1, 2]
        assert pool.stats()["write_backs"] == 2 and pool.resident == 2
        pool.flush()  # nothing is dirty any more
        assert pool.stats()["write_backs"] == 2
        disk.close()

    def test_closing_a_heap_writes_its_rows_to_the_file(self, tmp_path):
        table = PagedHeapStorage(
            movie_relation(), page_size=MIN_PAGE_SIZE, buffer_pool_pages=4, directory=tmp_path
        )
        table.insert({"id": 1, "title": "Troy", "year": 2004})
        assert b"Troy" not in table.disk.read(0)
        table.flush()
        assert b"Troy" in table.disk.read(0)
        table.insert({"id": 2, "title": "Seven", "year": 1995})
        table.close()
        heap = (tmp_path / "movies.heap").read_bytes()
        assert b"Troy" in heap and b"Seven" in heap

    def test_oversize_record_is_stored(self):
        table = PagedHeapStorage(
            movie_relation(), page_size=MIN_PAGE_SIZE, buffer_pool_pages=2
        )
        big_title = "x" * (4 * MIN_PAGE_SIZE)
        rowid = table.insert({"id": 1, "title": big_title, "year": 2000})
        assert table.row_by_id(rowid)["title"] == big_title
        assert table.stats()["oversize_rows"] == 1


# ----------------------------------------------------------------------
# Query differential: every engine vs. the dict-row oracle
# ----------------------------------------------------------------------


class TestQueryDifferential:
    @pytest.mark.parametrize("engine", ["paged", "columnar"])
    def test_paper_queries_byte_identical(self, engine):
        oracle = Executor(database_for("rows"))
        subject = Executor(database_for(engine))
        for name, sql in sorted(PAPER_QUERIES.items()):
            assert rows_of(subject.execute_sql(sql)) == rows_of(
                oracle.execute_sql(sql)
            ), name

    @pytest.mark.parametrize("engine", ["paged", "columnar"])
    def test_generated_corpus_byte_identical(self, engine):
        corpus = generate_workload(queries_per_category=10, seed=2009)
        assert len(corpus) == 50
        oracle = Executor(database_for("rows"))
        subject = Executor(database_for(engine))
        for query in corpus:
            assert rows_of(subject.execute_sql(query.sql)) == rows_of(
                oracle.execute_sql(query.sql)
            ), query.name

    def test_corpus_with_dataset_4x_larger_than_the_pool(self):
        from repro.datasets.generator import GeneratorConfig, generate_movie_database
        from repro.oracle import oracle_enabled

        # The interpreted oracle executor is quadratic on the corpus's
        # nested queries, so the REPRO_ORACLE run uses a smaller dataset
        # and corpus — with a smaller page size, so the dataset still
        # spans at least 4x more pages than the pool holds.
        if oracle_enabled():
            config = GeneratorConfig(movies=60, directors=20, actors=60)
            storage = StorageConfig(
                default_engine="paged", page_size=MIN_PAGE_SIZE, buffer_pool_pages=4
            )
            per_category = 2
        else:
            config = GeneratorConfig(movies=400, directors=60, actors=120)
            storage = engine_config("paged")
            per_category = 10
        oracle_db = generate_movie_database(config)
        paged_db = generate_movie_database(config).with_storage(storage)
        oracle = Executor(oracle_db)
        subject = Executor(paged_db)
        for query in generate_workload(queries_per_category=per_category, seed=2009):
            assert rows_of(subject.execute_sql(query.sql)) == rows_of(
                oracle.execute_sql(query.sql)
            ), query.name
        movies = paged_db.storage_stats()["MOVIES"]
        # The dataset spans at least 4x more pages than the 4-frame pool
        # holds, so the corpus cannot run without faulting pages back in.
        assert movies["disk"]["pages"] >= 4 * storage.buffer_pool_pages
        assert movies["buffer_pool"]["misses"] > 0
        assert movies["buffer_pool"]["evictions"] > 0

    @pytest.mark.parametrize("engine", ["paged", "columnar"])
    def test_interpreted_mode_matches_too(self, engine):
        oracle = Executor(database_for("rows"), compiled=False)
        subject = Executor(database_for(engine), compiled=False)
        for name, sql in sorted(PAPER_QUERIES.items()):
            assert rows_of(subject.execute_sql(sql)) == rows_of(
                oracle.execute_sql(sql)
            ), name


# ----------------------------------------------------------------------
# Randomized DML differential
# ----------------------------------------------------------------------


class TestRandomizedDml:
    """Random DML through the compiled engines vs the interpreted rows oracle."""

    CHECK_QUERIES = [
        "select m.id, m.title, m.year from MOVIES m",
        "select m.title from MOVIES m where m.year > 1990",
        "select g.genre, count(*) from GENRE g group by g.genre",
    ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("engine", ["paged", "columnar"])
    def test_interleaved_dml_stays_byte_identical(self, engine, seed):
        rng = random.Random(seed)
        oracle_db = database_for("rows")
        subject_db = database_for(engine)
        oracle = Executor(oracle_db, compiled=False)
        subject = Executor(subject_db, compiled=True)
        next_id = 10_000
        for step in range(120):
            roll = rng.random()
            if roll < 0.45:
                next_id += 1
                sql = (
                    f"insert into MOVIES values ({next_id}, "
                    f"'Generated {next_id}', {rng.randint(1950, 2008)})"
                )
            elif roll < 0.70:
                sql = (
                    f"update MOVIES set year = {rng.randint(1950, 2008)} "
                    f"where id = {rng.randint(1, next_id)}"
                )
            elif roll < 0.85:
                sql = f"delete from MOVIES where id = {rng.randint(1, next_id)}"
            else:
                sql = rng.choice(self.CHECK_QUERIES)
            a = oracle.execute_sql(sql)
            b = subject.execute_sql(sql)
            if hasattr(a, "rows"):
                assert rows_of(b) == rows_of(a), (seed, step, sql)
        assert dump_records(subject_db) == dump_records(oracle_db)
        for sql in self.CHECK_QUERIES:
            assert rows_of(subject.execute_sql(sql)) == rows_of(
                oracle.execute_sql(sql)
            )

    @pytest.mark.parametrize("engine", ["paged", "columnar"])
    def test_update_that_grows_a_row_keeps_position(self, engine):
        database = database_for(engine)
        oracle = database_for("rows")
        grown = "An Extremely Long Replacement Title " * 8
        for db in (database, oracle):
            Executor(db).execute_sql(
                f"update MOVIES set title = '{grown.strip()}' where id = 2"
            )
        assert dump_records(database) == dump_records(oracle)


class TestKeyedDml:
    """Keyed UPDATE/DELETE probe a hash index; ``compiled=False`` scans."""

    STATEMENTS = [
        "delete from CAST where mid = 4",
        "delete from CAST where CAST.mid = 4",
        "delete from CAST c where c.mid = 4",
        "delete from CAST where 4 = mid",
        "delete from CAST where mid = 4 and aid = 4",
        "delete from CAST where mid = 4 and role = 'Hector'",
        "update CAST set role = 'Paris' where mid = 4 and role = 'Hector'",
        "update CAST set role = 'Paris' where mid = 4 and role = 'Nobody'",
        "delete from GENRE where mid = NULL",
        "update MOVIES set year = 1999 where id = 1.0",
        "update MOVIES set year = 1999 where id = TRUE",
        "delete from GENRE where mid = 987654",
        "update MOVIES set year = 1999 where year > 2000",
        "update MOVIES set id = 556 where id = 555",
        "delete from MOVIES where id = 555",
        "delete from MOVIES where id = 4",
        "update MOVIES set id = 987654 where id = 4",
        "update CAST set mid = 987654 where mid = 4",
        "delete from CAST where nosuch = 1",
        "delete from CAST where mid = 4 and nosuch = 1",
        "delete from CAST where mid = MOVIES.id",
    ]

    @staticmethod
    def run(sql, compiled):
        """The outcome, final records and WAL payloads of ``sql`` in one mode."""
        database = movie_database()
        database.insert("MOVIES", {"id": 555, "title": "Childless", "year": 2001})
        payloads = []
        database.attach_wal(payloads)
        try:
            outcome = Executor(database, compiled=compiled).execute_sql(sql).affected_rows
        except ReproError as error:
            outcome = (type(error).__name__, str(error))
        return outcome, dump_records(database), payloads

    @pytest.mark.parametrize("sql", STATEMENTS)
    def test_probe_matches_the_scan(self, sql):
        assert self.run(sql, compiled=True) == self.run(sql, compiled=False)

    @staticmethod
    def count_full_scans(database, table_name):
        table = database.table(table_name)
        calls = []
        original = table.rows_with_ids

        def counted():
            calls.append(table_name)
            return original()

        table.rows_with_ids = counted
        return calls

    @pytest.mark.parametrize("compiled, scans", [(True, 0), (False, 1)])
    @pytest.mark.parametrize(
        "sql, table_name",
        [
            ("delete from CAST where mid = 4", "CAST"),
            ("update MOVIES set year = 1999 where id = 4", "MOVIES"),
        ],
    )
    def test_keyed_write_reads_no_full_table(self, sql, table_name, compiled, scans):
        database = movie_database()
        calls = self.count_full_scans(database, table_name)
        assert Executor(database, compiled=compiled).execute_sql(sql).affected_rows > 0
        assert len(calls) == scans

    def test_rows_the_probe_skips_are_not_evaluated(self):
        # Movie 1 has year 2005: only the scan evaluates the division on it.
        sql = "update MOVIES set year = 2004 where 1 / (year - 2005) < 1 and id = 4"
        assert Executor(movie_database(), compiled=True).execute_sql(sql).affected_rows == 1
        with pytest.raises(EvaluationError, match="division by zero"):
            Executor(movie_database(), compiled=False).execute_sql(sql)

    def test_unknown_column_raises_alike(self):
        errors = []
        for compiled in (True, False):
            with pytest.raises(EvaluationError) as caught:
                Executor(movie_database(), compiled=compiled).execute_sql(
                    "delete from CAST where nosuch = 1"
                )
            errors.append(str(caught.value))
        assert errors[0] == errors[1]


# ----------------------------------------------------------------------
# Recovery: WAL + snapshot restore into every engine (satellite fix)
# ----------------------------------------------------------------------


class TestRecoveryAcrossEngines:
    def _run_history(self, database: Database) -> None:
        executor = Executor(database)
        executor.execute_sql("insert into MOVIES values (900, 'Recovered', 1999)")
        executor.execute_sql("insert into GENRE values (900, 'Drama')")
        executor.execute_sql("update MOVIES set year = 2001 where id = 900")
        executor.execute_sql("delete from GENRE where mid = 900")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_wal_and_snapshot_restore_into_each_engine(self, tmp_path, engine):
        directory = tmp_path / engine
        config = DurabilityConfig(
            directory=directory, fsync="never", checkpoint_every=2
        )
        with DurabilityManager(config) as manager:
            database = manager.attach(database_for(engine))
            self._run_history(database)
            expected = dump_records(database)
            expected_ranking = [
                (t.row["id"], t.score) for t in rank_tuples(database, "MOVIES")
            ]

        with DurabilityManager(DurabilityConfig(directory=directory, fsync="never")) as manager:
            recovered = manager.attach(database_for(engine))
            assert manager.recovered
            assert dump_records(recovered) == expected
            table = recovered.table("MOVIES")
            # restore() rebuilt the physical layer consistently: indexes
            # answer lookups, null tallies match a recount, and the
            # engine tag survived recovery.
            stats = table.stats()
            assert stats["engine"] == engine
            assert stats["rows"] == len(expected["MOVIES"])
            assert table.lookup(("id",), (900,))[0]["title"] == "Recovered"
            for attribute in table.relation.attributes:
                recount = sum(
                    1 for record in expected["MOVIES"] if record[attribute.name] is None
                )
                assert table.null_count(attribute.name) == recount
            # The connectivity tracker observes the restored table from
            # scratch — ranking over the recovered database matches the
            # pre-crash database exactly.
            ranking = [
                (t.row["id"], t.score) for t in rank_tuples(recovered, "MOVIES")
            ]
            assert ranking == expected_ranking

    @pytest.mark.parametrize("engine", ENGINES)
    def test_restore_resets_observer_counts(self, engine):
        database = database_for(engine)
        tracker = tracker_for(database)  # build before the restore
        baseline = [
            (t.row["id"], t.score) for t in rank_tuples(database, "MOVIES")
        ]
        table = database.table("MOVIES")
        table.restore(table.export_rows(), table.next_rowid)
        after = [(t.row["id"], t.score) for t in rank_tuples(database, "MOVIES")]
        assert after == baseline
        assert tracker is tracker_for(database)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_with_storage_round_trip(self, engine):
        source = movie_database()
        clone = source.with_storage(engine_config(engine))
        assert dump_records(clone) == dump_records(source)
        back = clone.with_storage(StorageConfig())
        assert dump_records(back) == dump_records(source)
        assert back.table("MOVIES").next_rowid == source.table("MOVIES").next_rowid


# ----------------------------------------------------------------------
# Column accessor + vectorized execution
# ----------------------------------------------------------------------


class TestColumnAccess:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_column_matches_row_values(self, engine):
        database = database_for(engine)
        table = database.table("MOVIES")
        assert table.column("title") == [row["title"] for row in table.rows()]
        assert table.column("YEAR") == [row["year"] for row in table.rows()]

    def test_columnar_arrays_only_on_columnar(self):
        assert database_for("rows").table("MOVIES").columnar_arrays() is None
        assert database_for("paged").table("MOVIES").columnar_arrays() is None
        arrays = database_for("columnar").table("MOVIES").columnar_arrays()
        assert set(arrays) == {"id", "title", "year"}


class TestVectorizedScans:
    #: Shapes inside the fused subset: each execution runs one node
    #: column-at-a-time (an unsupported projection leaves its filter
    #: chain vectorized).
    FUSED = [
        "select m.title from MOVIES m where m.year > 1990",
        "select m.title from MOVIES m where 1990 < m.year",
        "select m.title from MOVIES m where m.year > 1990 and m.title like '%a%'",
        "select m.title from MOVIES m where m.title not like 'S%'",
        "select m.title, m.year from MOVIES m where m.year between 1970 and 1999",
        "select m.id from MOVIES m where m.year is null",
        "select upper(m.title) from MOVIES m where m.year is not null",
        "select * from MOVIES m where m.year >= 1995",
        "select m.title from MOVIES m",
    ]
    #: Shapes outside it (OR, IN list, NOT, arithmetic, computed
    #: projections): they run on the row path only, including an OR
    #: whose right side would divide by zero where the left one holds.
    ROW_ONLY = [
        "select upper(m.title) from MOVIES m",
        "select m.title || ' (' || m.year || ')' from MOVIES m",
        "select m.title from MOVIES m where m.year in (1977, 1994, 2004)",
        "select m.title from MOVIES m where m.year + 1 >= 1995 or m.title = 'Seven'",
        "select m.title from MOVIES m where not (m.year < 1980)",
        "select m.title from MOVIES m where m.year = 1977 or 1 / (m.year - 1977) > 0",
    ]

    def test_fused_shapes_run_one_vector_scan(self):
        oracle = Executor(database_for("rows"))
        subject = Executor(database_for("columnar"), compiled=True)
        for sql in self.FUSED:
            before = subject.vector_scans
            assert rows_of(subject.execute_sql(sql)) == rows_of(
                oracle.execute_sql(sql)
            ), sql
            assert subject.vector_scans == before + 1, sql
        assert subject.vector_fallbacks == 0

    def test_other_shapes_run_on_the_row_path(self):
        oracle = Executor(database_for("rows"))
        subject = Executor(database_for("columnar"), compiled=True)
        for sql in self.ROW_ONLY:
            assert rows_of(subject.execute_sql(sql)) == rows_of(
                oracle.execute_sql(sql)
            ), sql
        assert (subject.vector_scans, subject.vector_fallbacks) == (0, 0)

    @pytest.mark.parametrize("engine", ["rows", "paged"])
    def test_row_engines_compile_no_vector_closures(self, engine, monkeypatch):
        built = []
        compiler = executor_module.VectorExpressionCompiler

        def counting(*args, **kwargs):
            built.append(args)
            return compiler(*args, **kwargs)

        monkeypatch.setattr(executor_module, "VectorExpressionCompiler", counting)
        executor = Executor(database_for(engine), compiled=True)
        for sql in self.FUSED:
            for _ in range(3):  # first sighting, admission, shape-plan hit
                executor.execute_sql(sql)
        assert built == []
        Executor(database_for("columnar"), compiled=True).execute_sql(self.FUSED[0])
        assert len(built) == 1

    def test_parameterised_variants_share_the_vector_plan(self):
        oracle = Executor(database_for("rows"))
        subject = Executor(database_for("columnar"), compiled=True)
        for year in (1960, 1980, 2000):
            for pattern in ("S%", "%e%"):
                sql = (
                    "select m.title from MOVIES m "
                    f"where m.year > {year} and m.title like '{pattern}'"
                )
                assert rows_of(subject.execute_sql(sql)) == rows_of(
                    oracle.execute_sql(sql)
                ), sql
        assert subject.vector_scans == 6

    def test_raising_fused_conjunct_falls_back_once(self):
        # Text against a number: the vector pass raises a TypeError, and
        # the node re-runs row at a time to raise the row path's error.
        sql = "select m.title from MOVIES m where m.title > 5"
        with pytest.raises(EvaluationError) as oracle_error:
            Executor(database_for("rows")).execute_sql(sql)
        subject = Executor(database_for("columnar"), compiled=True)
        with pytest.raises(EvaluationError) as subject_error:
            subject.execute_sql(sql)
        assert str(subject_error.value) == str(oracle_error.value)
        assert (subject.vector_scans, subject.vector_fallbacks) == (0, 1)

    def test_errors_every_path_raises_stay_identical(self):
        sql = "select m.title from MOVIES m where 1 / (m.year - 1977) > 0"
        with pytest.raises(Exception) as oracle_error:
            Executor(database_for("rows")).execute_sql(sql)
        with pytest.raises(Exception) as subject_error:
            Executor(database_for("columnar")).execute_sql(sql)
        assert type(subject_error.value) is type(oracle_error.value)
        assert str(subject_error.value) == str(oracle_error.value)

    def test_dml_invalidates_vectorized_results(self):
        database = database_for("columnar")
        executor = Executor(database)
        sql = "select m.title from MOVIES m where m.year > 2003"
        before = rows_of(executor.execute_sql(sql))
        executor.execute_sql("insert into MOVIES values (901, 'Fresh', 2004)")
        after = rows_of(executor.execute_sql(sql))
        assert len(after) == len(before) + 1
        executor.execute_sql("delete from MOVIES where id = 901")
        assert rows_of(executor.execute_sql(sql)) == before


# ----------------------------------------------------------------------
# Columnar physical behaviour
# ----------------------------------------------------------------------


class TestColumnarCompaction:
    def test_validity_marks_nulls_and_follows_compaction(self):
        table = ColumnarStorage(movie_relation())
        rowids = [
            table.insert({"id": index, "title": f"T{index}", "year": None if index % 2 else 2000})
            for index in range(4)
        ]
        assert table.validity("year") == bytearray([1, 0, 1, 0])
        assert table.validity("TITLE") == bytearray([1, 1, 1, 1])
        table.delete_rows([rowids[0]])
        assert table.validity("year") == bytearray([0, 1, 0])  # compacted first
        assert table.stats()["dead_slots"] == 0
        assert table.null_count("year") == 2

    def test_tombstones_compact_and_order_survives(self):
        table = ColumnarStorage(movie_relation())
        for index in range(40):
            table.insert({"id": index, "title": f"T{index}", "year": 1990 + index % 10})
        for index in range(0, 40, 2):
            table.delete_rows([rowid for rowid, row in table.rows_with_ids() if row["id"] == index])
        assert [row["id"] for row in table.rows()] == list(range(1, 40, 2))
        table.columnar_arrays()  # always compacts before exposing arrays
        stats = table.stats()
        assert stats["dead_slots"] == 0
        assert stats["compactions"] >= 1


# ----------------------------------------------------------------------
# Cross-domain DML differential: every new domain, engines vs rows oracle
# ----------------------------------------------------------------------


#: Per-domain randomized DML: one mutable relation with an integer PK,
#: plus check queries spanning scans, filters and aggregates.  Insert
#: column orders match the domain schemas.
DOMAIN_DML = {
    "twitter": dict(
        insert=lambda i, rng: (
            f"insert into TWEET values ({i}, {rng.randint(1, 24)}, "
            f"'generated tweet {i}', {rng.randint(2006, 2009)}, {rng.randint(0, 500)})"
        ),
        update=lambda i, rng: f"update TWEET set likes = {rng.randint(0, 500)} where id = {i}",
        delete=lambda i, rng: f"delete from TWEET where id = {i}",
        checks=[
            "select t.id, t.body, t.likes from TWEET t",
            "select t.body from TWEET t where t.likes > 100",
            "select t.posted, count(*) from TWEET t group by t.posted",
        ],
    ),
    "twitch": dict(
        insert=lambda i, rng: (
            f"insert into STREAM values ({i}, {rng.randint(1, 12)}, "
            f"{rng.randint(1, 8)}, 'generated stream {i}', "
            f"{rng.randint(10, 9000)}, {rng.randint(2006, 2009)})"
        ),
        update=lambda i, rng: (
            f"update STREAM set viewers = {rng.randint(10, 9000)} where id = {i}"
        ),
        delete=lambda i, rng: f"delete from STREAM where id = {i}",
        checks=[
            "select t.id, t.title, t.viewers from STREAM t",
            "select t.title from STREAM t where t.viewers > 4000",
            "select t.aired, count(*) from STREAM t group by t.aired",
        ],
    ),
    "companies": dict(
        insert=lambda i, rng: (
            f"insert into EMPLOYEE values ({i}, {rng.randint(1, 20)}, "
            f"'Generated Hire {i}', 'engineer', {rng.randrange(30000, 160000, 500)}, "
            f"{rng.randint(1990, 2009)})"
        ),
        update=lambda i, rng: (
            f"update EMPLOYEE set salary = {rng.randrange(30000, 160000, 500)} "
            f"where id = {i}"
        ),
        delete=lambda i, rng: f"delete from EMPLOYEE where id = {i}",
        checks=[
            "select e.id, e.name, e.salary from EMPLOYEE e",
            "select e.name from EMPLOYEE e where e.salary > 100000",
            "select e.title, count(*) from EMPLOYEE e group by e.title",
        ],
    ),
    "gameofthrones": dict(
        insert=lambda i, rng: (
            f"insert into CHARACTER values ({i}, {rng.randint(1, 8)}, "
            f"'Generated Knight {i}', 'knight', {rng.randint(240, 290)})"
        ),
        update=lambda i, rng: (
            f"update CHARACTER set born = {rng.randint(240, 290)} where id = {i}"
        ),
        delete=lambda i, rng: f"delete from CHARACTER where id = {i}",
        checks=[
            "select c.id, c.name, c.born from CHARACTER c",
            "select c.name from CHARACTER c where c.born < 260",
            "select c.role, count(*) from CHARACTER c group by c.role",
        ],
    ),
}


class TestCrossDomainDml:
    """Randomized DML streams over each new domain, compiled engines vs the
    interpreted rows oracle."""

    @pytest.mark.parametrize("domain_name", sorted(DOMAIN_DML))
    @pytest.mark.parametrize("engine", ["paged", "columnar"])
    def test_interleaved_dml_stays_byte_identical(self, domain_name, engine):
        domain = get_domain(domain_name)
        dml = DOMAIN_DML[domain_name]
        rng = random.Random(f"{domain_name}-dml-0")
        oracle_db = domain.database(storage=StorageConfig(default_engine="rows"))
        subject_db = domain.database(storage=engine_config(engine))
        oracle = Executor(oracle_db, compiled=False)
        subject = Executor(subject_db, compiled=True)
        next_id = 10_000
        for step in range(120):
            roll = rng.random()
            if roll < 0.45:
                next_id += 1
                sql = dml["insert"](next_id, rng)
            elif roll < 0.70:
                sql = dml["update"](rng.randint(10_001, max(next_id, 10_001)), rng)
            elif roll < 0.85:
                sql = dml["delete"](rng.randint(10_001, max(next_id, 10_001)), rng)
            else:
                sql = rng.choice(dml["checks"])
            # The same RNG must drive both sides, so build sql once above.
            a = oracle.execute_sql(sql)
            b = subject.execute_sql(sql)
            if hasattr(a, "rows"):
                assert rows_of(b) == rows_of(a), (domain_name, engine, step, sql)
            else:
                assert b.affected_rows == a.affected_rows, (domain_name, engine, step, sql)
        assert dump_records(subject_db) == dump_records(oracle_db)
        for sql in dml["checks"]:
            assert rows_of(subject.execute_sql(sql)) == rows_of(oracle.execute_sql(sql))
