"""Tests for the shipped datasets and generators."""

from collections import Counter

from repro.datasets import (
    ALL_GENRES,
    GeneratorConfig,
    PAPER_NARRATIVES,
    PAPER_QUERIES,
    employee_database,
    generate_movie_database,
    generate_movie_records,
    generate_workload,
    library_database,
    movie_database,
    paper_workload,
)
from repro.datasets.generator import bench_movie_database
from repro.engine import Executor
from repro.storage import dump_records


class TestMovieSeed:
    def test_paper_tuples_present(self):
        database = movie_database()
        assert database.table("DIRECTOR").lookup(("name",), ("Woody Allen",))
        assert database.table("ACTOR").lookup(("name",), ("Brad Pitt",))
        assert database.table("MOVIES").lookup(("title",), ("Match Point",))

    def test_woody_allen_has_exactly_the_three_paper_movies(self):
        database = movie_database()
        executor = Executor(database)
        result = executor.execute_sql(
            "select m.title from MOVIES m, DIRECTED r, DIRECTOR d"
            " where m.id = r.mid and r.did = d.id and d.name = 'Woody Allen'"
        )
        assert sorted(result.column("m.title")) == [
            "Anything Else", "Match Point", "Melinda and Melinda",
        ]

    def test_all_genres_constant_matches_data(self):
        database = movie_database()
        executor = Executor(database)
        genres = executor.execute_sql("select distinct g.genre from GENRE g")
        assert sorted(genres.column("g.genre")) == ALL_GENRES

    def test_empty_database_option(self):
        assert movie_database(seed_data=False).total_rows == 0

    def test_narratives_defined_for_every_query(self):
        for name in PAPER_QUERIES:
            assert name in PAPER_NARRATIVES


class TestOtherDatasets:
    def test_employee_database_referential_cycle_loaded(self):
        database = employee_database()
        assert len(database.table("EMP")) == 6
        assert len(database.table("DEPT")) == 3
        carol = database.table("EMP").lookup(("name",), ("Carol Chen",))[0]
        assert carol["did"] == 10

    def test_library_database(self):
        database = library_database()
        assert len(database.table("ITEM")) == 6
        assert database.table("AUTHOR").lookup(("name",), ("Grace Murray",))


class TestGenerator:
    def test_generated_records_sizes(self):
        config = GeneratorConfig(movies=20, directors=5, actors=10)
        records = generate_movie_records(config)
        assert len(records["MOVIES"]) == 20
        assert len(records["DIRECTED"]) == 20
        assert len(records["CAST"]) == 20 * config.cast_per_movie
        assert len(records["GENRE"]) == 20 * config.genres_per_movie

    def test_generation_is_deterministic(self):
        config = GeneratorConfig(movies=15, seed=123)
        assert generate_movie_records(config) == generate_movie_records(config)

    def test_different_seeds_differ(self):
        first = generate_movie_records(GeneratorConfig(movies=15, seed=1))
        second = generate_movie_records(GeneratorConfig(movies=15, seed=2))
        assert first != second

    def test_generated_database_satisfies_foreign_keys(self):
        database = generate_movie_database(GeneratorConfig(movies=30, directors=5, actors=12))
        # FK enforcement is on, so loading already proves consistency; check counts.
        assert len(database.table("MOVIES")) == 30 + 9  # synthetic + paper seed
        assert len(database.table("DIRECTED")) == 30 + 9

    def test_bench_database_is_the_same_200_movies_on_every_build(self):
        database = bench_movie_database()
        assert len(database.table("MOVIES")) == 200 + 9  # synthetic + paper seed
        assert len(database.table("DIRECTOR")) == 20 + 4
        assert len(database.table("ACTOR")) == 50 + 8
        assert dump_records(database) == dump_records(bench_movie_database())

    def test_generated_database_without_paper_seed(self):
        database = generate_movie_database(
            GeneratorConfig(movies=5, directors=2, actors=4), include_paper_seed=False
        )
        assert len(database.table("MOVIES")) == 5


class TestWorkload:
    def test_paper_workload_has_nine_queries(self):
        assert len(paper_workload()) == 9

    def test_generated_workload_size_and_grouping(self):
        workload = generate_workload(queries_per_category=5, seed=3)
        assert len(workload) == 25
        counts = Counter(query.expected_category for query in workload)
        assert counts == {
            category: 5 for category in ("path", "subgraph", "graph", "nested", "aggregate")
        }

    def test_workload_queries_execute(self):
        database = movie_database()
        executor = Executor(database)
        for query in generate_workload(queries_per_category=2, seed=5):
            result = executor.execute_sql(query.sql)
            assert result.row_count >= 0
