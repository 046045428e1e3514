"""Second-sighting admission in front of the shape-keyed caches.

A literal-stripped shape's first sighting is translated and executed on
the full pipelines and leaves nothing keyed to its statement behind; its
second sighting compiles the phrase plan and the shape plan.  These tests
pin that contract for the translator, the plan store and the executor,
the counters that report it, the scan cache across writes, explanations
of empty answers, and a shape-churn soak in which every cache and memo
stays within its bound while a hot shape keeps hitting.
"""

import pytest

from repro.datasets import PAPER_QUERIES, movie_database
from repro.engine import Executor
from repro.engine import executor as executor_module
from repro.errors import UnknownTableError
from repro.query_nl.empty_answer import AnswerExplainer
from repro.query_nl.translator import QueryTranslator
from repro.sql import shape as shape_module
from repro.storage.config import STORAGE_ENGINES, StorageConfig
from repro.utils.cache import SIGHTINGS_SIZE


def compiled_executor(database) -> Executor:
    return Executor(database, compiled=True, parameterised=True)


def interpreted(database) -> Executor:
    return Executor(database, compiled=False)


def plan_translator(database) -> QueryTranslator:
    return QueryTranslator(database.schema, phrase_plans=True)


def assert_same(a, b):
    assert a.columns == b.columns
    assert a.rows == b.rows


@pytest.fixture()
def db():
    return movie_database()


# ---------------------------------------------------------------------------
# Translator and plan store
# ---------------------------------------------------------------------------


class TestTranslatorAdmission:
    SQL = "select m.title from MOVIES m where m.year = {year}"

    def test_first_sighting_caches_nothing(self, db):
        translator = plan_translator(db)
        oracle = QueryTranslator(db.schema, phrase_plans=False, cache_size=None)
        sql = self.SQL.format(year=2004)
        assert translator.translate(sql) == oracle.translate(sql)
        stats = translator.stats()
        assert stats["exact_cache"]["size"] == 0
        plans = stats["plan_store"]
        assert plans["size"] == 0
        assert plans["misses"] == plans["deferred"] == 1 and plans["hits"] == 0

    def test_second_sighting_compiles_and_third_hits(self, db):
        translator = plan_translator(db)
        translator.translate(self.SQL.format(year=2004))
        translator.translate(self.SQL.format(year=1995))
        stats = translator.stats()
        assert stats["plan_store"]["size"] == 1
        assert stats["exact_cache"]["size"] == 1
        translator.translate(self.SQL.format(year=1977))
        plans = translator.stats()["plan_store"]
        assert plans["hits"] == 1
        assert plans["misses"] == 2 and plans["deferred"] == 1

    def test_a_known_shapes_new_guard_class_compiles_at_once(self, db):
        # One-word and multi-word strings are different guard classes of
        # one shape: admission is keyed on the shape, as in the executor.
        sql = "select a.id from ACTOR a where a.name = '{name}'"
        translator = plan_translator(db)
        translator.translate(sql.format(name="Brad Pitt"))
        translator.translate(sql.format(name="Madonna"))
        plans = translator.stats()["plan_store"]
        assert plans["deferred"] == 1 and plans["misses"] == 2
        assert plans["size"] == 1
        translator.translate(sql.format(name="Mark Hamill"))
        plans = translator.stats()["plan_store"]
        assert plans["deferred"] == 1 and plans["misses"] == 3
        assert plans["size"] == 2

    def test_hits_plus_misses_equal_lookups(self, db):
        translator = QueryTranslator(db.schema, phrase_plans=True, cache_size=None)
        texts = [self.SQL.format(year=1990 + i) for i in range(5)]
        texts += [f"select x{i}.title from MOVIES x{i}" for i in range(5)]
        for sql in texts:
            translator.translate(sql)
        plans = translator.stats()["plan_store"]
        assert plans["hits"] + plans["misses"] == len(texts)
        assert plans["deferred"] == 6  # one per shape
        assert plans["hits"] == 3

    def test_oracle_translator_caches_on_first_translation(self, db):
        translator = QueryTranslator(db.schema, phrase_plans=False)
        translator.translate(self.SQL.format(year=2004))
        assert translator.stats()["exact_cache"]["size"] == 1
        assert translator.stats()["plan_store"] is None


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


def _footprint(executor: Executor) -> dict:
    stats = executor.cache_stats
    return {
        "entries": stats["shape_plans"]["entries"],
        "shapes": stats["shape_plans"]["shapes"],
        "memo": stats["subquery"]["entries"],
    }


class TestExecutorAdmission:
    def test_first_sighting_keeps_nothing_keyed_to_the_statement(self, db):
        executor = compiled_executor(db)
        oracle = interpreted(db)
        for name in ("Q1", "Q5", "Q6", "Q7"):
            sql = PAPER_QUERIES[name]
            assert_same(executor.execute_sql(sql), oracle.execute_sql(sql))
        assert _footprint(executor) == {"entries": 0, "shapes": 0, "memo": 0}
        shape = executor.cache_stats["shape_plans"]
        assert shape["misses"] == shape["deferred"] == 4 and shape["hits"] == 0
        # The statement-keyed state really was used, then dropped with it.
        assert executor.cache_stats["subquery"]["misses"] > 0

    def test_second_sighting_compiles_and_third_hits(self, db):
        executor = compiled_executor(db)
        oracle = interpreted(db)
        sql = PAPER_QUERIES["Q5"]
        variant = sql.replace("Brad Pitt", "Mark Hamill")
        for text in (sql, sql, variant):
            assert_same(executor.execute_sql(text), oracle.execute_sql(text))
        shape = executor.cache_stats["shape_plans"]
        assert shape["entries"] == 1 and shape["hits"] == 1
        assert shape["misses"] == 2 and shape["deferred"] == 1
        assert shape["hits"] + shape["misses"] + shape["fallbacks"] == 3

    def test_a_known_shapes_new_guard_class_compiles_at_once(self, db):
        # LIMIT values are pinned: each is its own guard class of the shape.
        executor = compiled_executor(db)
        for limit in (2, 3, 4):
            executor.execute_sql(f"select m.title from MOVIES m limit {limit}")
        shape = executor.cache_stats["shape_plans"]
        assert shape["deferred"] == 1 and shape["misses"] == 3
        assert shape["entries"] == 2 and shape["shapes"] == 1

    def test_correlated_subqueries_are_planned_once_per_statement(self, db):
        executor = compiled_executor(db)
        planned = []
        plan = executor.planner.plan

        def counting_plan(statement):
            planned.append(statement)
            return plan(statement)

        executor.planner.plan = counting_plan
        # Q6 is doubly nested: each of its three SELECTs is planned once,
        # and so is each of the two blocks it is decorrelated into (the
        # inner block without its links, the middle block without its
        # NOT EXISTS); nothing is planned per outer row.
        result = executor.execute_sql(PAPER_QUERIES["Q6"])
        assert [row.get("m.title") for row in result.rows] == ["Ocean Heist"]
        assert len(planned) == 5
        assert len({id(statement) for statement in planned}) == 5
        assert executor.cache_stats["shape_plans"]["deferred"] == 1

    def test_mutations_are_never_deferred(self, db):
        executor = compiled_executor(db)
        read = "select m.title from MOVIES m where m.year > 1890"
        executor.execute_sql(read)
        executor.execute_sql(read)  # admitted: its scan rows are cached
        assert executor.cache_stats["scan_tables"] == 1
        executor.execute_sql(
            "insert into MOVIES (id, title, year) values (995, 'Admitted', 1891)"
        )
        shape = executor.cache_stats["shape_plans"]
        assert shape["fallbacks"] == 1 and shape["deferred"] == 1
        # The scan entry outlives the insert: it is checked against the
        # table's version when read, so the next read rescans MOVIES.
        assert executor.cache_stats["scan_tables"] == 1
        titles = [row.get("m.title") for row in executor.execute_sql(read).rows]
        assert "Admitted" in titles

    def test_caches_are_validated_before_a_first_sighting(self, db):
        executor = compiled_executor(db)
        admitted = "select m.title from MOVIES m where m.year > 1890"
        executor.execute_sql(admitted)
        executor.execute_sql(admitted)
        db.insert("MOVIES", {"id": 994, "title": "Bypass", "year": 1892})
        # A new shape over the same alias reads the shared scan rows.
        fresh = "select m.title, m.year from MOVIES m where m.year < 1900"
        result = executor.execute_sql(fresh)
        assert executor.cache_stats["shape_plans"]["deferred"] == 2
        assert [row.get("m.title") for row in result.rows] == ["Bypass"]

    @pytest.mark.parametrize("compiled", [True, False])
    @pytest.mark.parametrize("engine", STORAGE_ENGINES)
    def test_a_select_over_a_missing_relation_keeps_no_shape_plan(
        self, engine, compiled
    ):
        database = movie_database().with_storage(StorageConfig(default_engine=engine))
        executor = Executor(database, compiled=compiled)
        texts = [
            "select n.id from NOSUCH n where n.id = {}",
            "select m.title from MOVIES m"
            " where m.id in (select n.id from NOSUCH n where n.id = {})",
        ]
        for text in texts:
            errors = set()
            for value in (1, 2, 3):
                with pytest.raises(UnknownTableError) as raised:
                    executor.execute_sql(text.format(value))
                errors.add(str(raised.value))
            assert errors == {
                "database has no table 'NOSUCH'"
                " (available: ACTOR, CAST, DIRECTED, DIRECTOR, GENRE, MOVIES)"
            }
        for _ in range(3):
            result = executor.execute_sql("select n.id from NOSUCH n limit 0")
            assert result.rows == []
        shape = executor.cache_stats["shape_plans"]
        assert shape["entries"] == shape["shapes"] == shape["hits"] == 0

    def test_pinned_plans_are_admitted_on_the_second_sighting(self, db):
        executor = Executor(db, compiled=True, parameterised=False)
        sql = PAPER_QUERIES["Q1"]
        executor.execute_sql(sql)
        assert _footprint(executor) == {"entries": 0, "shapes": 0, "memo": 0}
        executor.execute_sql(sql)
        executor.execute_sql(sql)
        shape = executor.cache_stats["shape_plans"]
        assert shape["entries"] == shape["shapes"] == 1
        assert (shape["deferred"], shape["misses"], shape["hits"]) == (1, 2, 1)

    def test_scan_cache_is_bounded_under_fresh_aliases(self, db):
        # Scan rows are cached per table whatever the alias: one entry.
        executor = compiled_executor(db)
        for index in range(64 * 3):
            alias = f"s{index}"
            executor.execute_sql(
                f"select {alias}.title from MOVIES {alias} where {alias}.year > 1990"
            )
            assert executor.cache_stats["scan_tables"] == 1


# ---------------------------------------------------------------------------
# Scan cache across writes
# ---------------------------------------------------------------------------


class TestScanCacheAcrossWrites:
    JOIN = "select m.title, g.genre from MOVIES m, GENRE g where m.id = g.mid"

    def test_every_table_version_only_rises(self, db):
        # The premise of per-entry validation: an entry cached at a
        # table's version can never match that table's data again once
        # any write has moved it.
        genre = db.table("GENRE")
        versions = [genre.version]

        def record():
            versions.append(genre.version)

        db.insert("GENRE", {"mid": 1, "genre": "noir"})
        record()
        db.update_where("GENRE", lambda row: row["genre"] == "noir", {"genre": "pulp"})
        record()
        db.delete_where("GENRE", lambda row: row["genre"] == "pulp")
        record()
        genre.restore(genre.export_rows(), genre.next_rowid)
        record()
        genre.truncate()
        record()
        assert all(later > earlier for earlier, later in zip(versions, versions[1:]))

    def test_a_write_rescans_only_the_table_it_touched(self, db):
        executor = compiled_executor(db)
        scans = []
        for name in ("MOVIES", "GENRE"):
            table = db.table(name)

            def counted(rows=table.rows, name=name):
                scans.append(name)
                return rows()

            table.rows = counted
        executor.execute_sql(self.JOIN)
        assert sorted(scans) == ["GENRE", "MOVIES"]
        scans.clear()
        executor.execute_sql(self.JOIN)
        assert scans == []
        db.insert("GENRE", {"mid": 1, "genre": "noir"})
        result = executor.execute_sql(self.JOIN)
        assert scans == ["GENRE"]
        assert "noir" in [row.get("g.genre") for row in result.rows]
        assert_same(result, interpreted(db).execute_sql(self.JOIN))

    def test_a_write_drops_the_entries_it_made_stale(self, db):
        # The next statement after a write drops the written table's
        # entries even when it does not read that table, so their rows
        # do not stay resident until the key is read again.
        executor = compiled_executor(db)
        executor.execute_sql(self.JOIN)
        assert sorted(executor._scan_cache) == ["GENRE", "MOVIES"]
        movies = db.table("MOVIES")
        scans = []

        def counted(rows=movies.rows):
            scans.append("MOVIES")
            return rows()

        movies.rows = counted
        db.insert("GENRE", {"mid": 1, "genre": "noir"})
        sql = "select m.title from MOVIES m where m.year > 2000"
        result = executor.execute_sql(sql)
        assert list(executor._scan_cache) == ["MOVIES"]
        assert scans == []
        assert_same(result, interpreted(db).execute_sql(sql))


# ---------------------------------------------------------------------------
# Explanations of empty answers run their relaxations as shapes
# ---------------------------------------------------------------------------


class TestExplainRelaxations:
    SQL = "select m.title from MOVIES m where m.year = 1850 and m.title = 'Troy'"

    def test_third_explanation_plans_nothing(self, db):
        explainer = AnswerExplainer(db, executor=compiled_executor(db))
        planned = []
        plan = explainer.executor.planner.plan

        def counting_plan(statement):
            planned.append(statement)
            return plan(statement)

        explainer.executor.planner.plan = counting_plan
        counts = []
        for _ in range(3):
            before = len(planned)
            explanation = explainer.explain(self.SQL)
            counts.append(len(planned) - before)
        # The query and both relaxations: first sightings, then compiles.
        assert counts == [3, 3, 0]
        assert explanation.responsible_conditions == ["m.year = 1850"]

    @pytest.mark.parametrize(
        "name", ["movies", "twitter", "twitch", "companies", "gameofthrones"]
    )
    def test_corpus_explanations_match_the_interpreted_executor(self, name):
        from repro.datasets.domains import get_domain

        domain = get_domain(name)
        database = domain.database()
        probe = compiled_executor(database)
        queries = [
            query
            for query in domain.corpus()
            if probe.execute_sql(query.sql).row_count == 0
        ]
        assert queries, f"{name} has no empty-answer corpus query"
        compiled = AnswerExplainer(database, executor=compiled_executor(database))
        oracle = AnswerExplainer(database, executor=interpreted(database))
        for query in queries:
            expected = oracle.explain(query.sql)
            # First sighting, admission, then shape-plan hits.
            for _ in range(3):
                assert compiled.explain(query.sql) == expected, query.name


# ---------------------------------------------------------------------------
# Shape-churn soak
# ---------------------------------------------------------------------------


class TestShapeChurnSoak:
    """2 000 shapes seen once, 2 000 seen twice, explanations on fresh aliases."""

    ONCE = 2000
    TWICE = 2000
    HOT_EVERY = 600  # beyond both the 512-entry and the 256-entry caches

    @staticmethod
    def _query(alias: str, year: int) -> str:
        return f"select {alias}.title from MOVIES {alias} where {alias}.year > {year}"

    @staticmethod
    def _bounds(translator: QueryTranslator, executor: Executor):
        """(name, size, bound) for every cache and memo the two touch."""
        plans = translator._plans
        scope = executor._shared_scope
        return [
            ("exact-text LRU", len(translator._cache), translator._cache.maxsize),
            ("phrase plans", len(plans.plans), plans.plans.maxsize),
            ("plan-store sightings", len(plans._sightings), SIGHTINGS_SIZE),
            ("masked shapes", len(shape_module._MASK_CACHE), shape_module._MASK_CACHE.maxsize),
            ("scan cache", len(executor._scan_cache), len(executor.database.tables)),
            ("shape infos", len(executor._shape_infos), executor._shape_infos.maxsize),
            ("shape plans", len(executor._shape_plans), executor._shape_plans.maxsize),
            ("executor sightings", len(executor._sightings), SIGHTINGS_SIZE),
            ("subquery memo", scope.memo_entries, executor_module._SUBQUERY_MEMO_LIMIT),
        ]

    def _assert_bounded(self, translator, executor):
        for name, size, bound in self._bounds(translator, executor):
            assert size <= bound, f"{name}: {size} > {bound}"

    def test_caches_stay_bounded_and_a_hot_shape_keeps_hitting(self):
        database = movie_database()
        translator = QueryTranslator(database.schema, phrase_plans=True)
        executor = compiled_executor(database)
        explainer = AnswerExplainer(
            database, lexicon=translator.lexicon, executor=executor
        )

        def serve(sql):
            translator.translate(sql)
            executor.execute_sql(sql)

        for index in range(self.TWICE):
            serve(self._query(f"t{index}", 1990))
            serve(self._query(f"t{index}", 1995))
            if index % 100 == 0:
                self._assert_bounded(translator, executor)
        admitted = executor.cache_stats["shape_plans"]
        assert admitted["misses"] - admitted["deferred"] == self.TWICE

        hot = "select h.title, h.year from MOVIES h where h.year > {year}"
        serve(hot.format(year=1980))
        serve(hot.format(year=1985))  # admitted
        for index in range(self.ONCE):
            serve(self._query(f"o{index}", 1990))
            if index % 40 == 0:
                # A fresh alias per explanation: a first sighting, whose
                # relaxed re-runs keep nothing either.
                explanation = explainer.explain(
                    self._query(f"e{index}", 3000) + f" and e{index}.id > 0"
                )
                assert explanation.row_count == 0
            if (index + 1) % self.HOT_EVERY == 0:
                plans_before = translator.stats()["plan_store"]["hits"]
                shapes_before = executor.cache_stats["shape_plans"]["hits"]
                serve(hot.format(year=1900 + index // self.HOT_EVERY))
                assert translator.stats()["plan_store"]["hits"] == plans_before + 1
                assert executor.cache_stats["shape_plans"]["hits"] == shapes_before + 1
            if index % 100 == 0:
                self._assert_bounded(translator, executor)
        self._assert_bounded(translator, executor)
        plans = translator.stats()["plan_store"]
        assert plans["deferred"] >= self.ONCE + self.TWICE
