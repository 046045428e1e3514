"""Storage engine benchmark: columnar scans vs. the row oracle, paged I/O.

Three measurements, each with an in-run correctness guard (the numbers
are meaningless if the engines disagree, so equivalence is asserted in
the same run that produces them):

* ``columnar`` — full-scan filter queries at 200 and 2000 movies,
  dict-row engine vs. the columnar engine's vectorized path, each also
  against a bare loop over the columnar arrays (:func:`_bare_scan`: one
  Python predicate call per row, no executor).  The acceptance budget
  lives here: at 2000 movies the vectorized path may take at most
  :data:`BUDGET_MAX_OVER_BARE` times the bare loop's time on every
  scan-filter shape.  The bare loop is the base because no engine change
  moves it: a row-path speedup shrinks the row-over-columnar ratio
  (recorded as ``min_speedup``, information only) without any change to
  the vector path.  Each repeat times the row run, the columnar run and
  the bare loop back to back, and every ratio is the median of the
  per-repeat ratios over :data:`SCAN_REPEATS` repeats, quick runs
  included, so a slow spell on a shared host slows all sides of one
  ratio instead of one side of the comparison.
* ``paged`` — the 50-query corpus against a paged-heap database whose
  dataset spans at least 4x more pages than the buffer pool holds,
  cold (first touch faults every page) vs. warm pool, byte-identical
  to the dict-row oracle throughout.
* ``equivalence`` — the explicit in-run check: paper queries plus the
  generated corpus across all three engines.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from budgets import exit_status, record  # noqa: E402
from repro.datasets import PAPER_QUERIES  # noqa: E402
from repro.datasets.generator import GeneratorConfig, generate_movie_database  # noqa: E402
from repro.datasets.workload import generate_workload  # noqa: E402
from repro.engine.executor import Executor  # noqa: E402
from repro.storage import StorageConfig  # noqa: E402

__all__ = ["bench_storage"]

#: Acceptance budget: a vectorized full-scan filter at 2000 movies may take
#: at most this many times the bare loop over the arrays.  On a 2-vCPU
#: Xeon the vectorized path reads 1.44-1.48x on its worse query (it also
#: builds a result ``Row`` per row, which the bare loop does not) and the
#: row path 3.3x, so the bound leaves about 15% headroom above the first
#: and fails the second.
BUDGET_MAX_OVER_BARE = 1.7

#: Interleaved (rows, columnar) timing pairs per scan shape, quick or not.
SCAN_REPEATS = 9

#: Pool sized far below the dataset so eviction is on the query path.
PAGED_CONFIG = {"page_size": 512, "buffer_pool_pages": 4}

#: The scan-filter shapes the speedup is measured on (full scans only —
#: no equality conjuncts, so the row path cannot hide behind an index).
SCAN_QUERIES = [
    "select m.title from MOVIES m where m.year > 1990 and m.title like '%a%'",
    "select m.title, m.year from MOVIES m where m.year between 1960 and 1980",
]

#: The bare loop's version of each scan query: a predicate over one
#: row's (year, title) and the columns it outputs.
BARE_SCANS = [
    (
        lambda year, title: year is not None and year > 1990
        and title is not None and "a" in title,
        ("title",),
    ),
    (lambda year, title: year is not None and 1960 <= year <= 1980, ("title", "year")),
]


def _config(movies: int) -> GeneratorConfig:
    return GeneratorConfig(
        movies=movies, directors=max(20, movies // 10), actors=max(60, movies // 4)
    )


def _median(run, repeats: int) -> float:
    return statistics.median(run() for _ in range(repeats))


def _rows(result):
    return [dict(row.raw) for row in result.rows]


def _bare_scan(table, test, columns) -> list:
    """The budget's base: one loop over ``table``'s columnar arrays, calling
    ``test`` on each row's (year, title) and keeping ``columns`` of the rows
    it passes, as tuples."""
    arrays = table.columnar_arrays()
    picked = [arrays[name] for name in columns]
    return [
        tuple(column[i] for column in picked)
        for i, (year, title) in enumerate(zip(arrays["year"], arrays["title"]))
        if test(year, title)
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else float("inf")


def _scan_pair(movies: int) -> dict:
    config = _config(movies)
    rows_db = generate_movie_database(config)
    col_db = generate_movie_database(config).with_storage(
        StorageConfig(default_engine="columnar")
    )
    rows_ex, col_ex = Executor(rows_db), Executor(col_db)
    table = col_db.table("MOVIES")
    out = {"movies": movies, "repeats": SCAN_REPEATS}
    speedups, over_bare = [], []
    for index, (sql, (test, columns)) in enumerate(zip(SCAN_QUERIES, BARE_SCANS)):
        # First sighting, then admission: every timed run is a shape-plan hit.
        for _ in range(2):
            assert _rows(col_ex.execute_sql(sql)) == _rows(rows_ex.execute_sql(sql))
        got = [tuple(row.raw.values()) for row in col_ex.execute_sql(sql).rows]
        assert got == _bare_scan(table, test, columns), sql
        row_times, col_times, bare_times = [], [], []
        for _ in range(SCAN_REPEATS):
            row_times.append(_time(lambda: rows_ex.execute_sql(sql)))
            col_times.append(_time(lambda: col_ex.execute_sql(sql)))
            bare_times.append(_time(lambda: _bare_scan(table, test, columns)))
        speedup = statistics.median(map(_ratio, row_times, col_times))
        speedups.append(speedup)
        over_bare.append(statistics.median(map(_ratio, col_times, bare_times)))
        out[f"q{index}_rows_ms"] = round(statistics.median(row_times) * 1e3, 4)
        out[f"q{index}_columnar_ms"] = round(statistics.median(col_times) * 1e3, 4)
        out[f"q{index}_bare_ms"] = round(statistics.median(bare_times) * 1e3, 4)
        out[f"q{index}_speedup"] = round(speedup, 2)
        out[f"q{index}_over_bare"] = round(over_bare[-1], 2)
    out["min_speedup"] = round(min(speedups), 2)
    out["max_over_bare"] = round(max(over_bare), 2)
    out["vector_scans"] = col_ex.vector_scans
    return out


def _time(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def _paged_corpus(repeats: int, corpus_size: int) -> dict:
    config = _config(400)
    corpus = generate_workload(queries_per_category=corpus_size, seed=2009)
    oracle_db = generate_movie_database(config)
    oracle = Executor(oracle_db)
    expected = [_rows(oracle.execute_sql(q.sql)) for q in corpus]

    def cold_run() -> float:
        database = generate_movie_database(config).with_storage(
            StorageConfig(default_engine="paged", **PAGED_CONFIG)
        )
        executor = Executor(database)
        start = time.perf_counter()
        for query, want in zip(corpus, expected):
            got = _rows(executor.execute_sql(query.sql))
            assert got == want, query.name  # byte-identical to the oracle
        return time.perf_counter() - start

    database = generate_movie_database(config).with_storage(
        StorageConfig(default_engine="paged", **PAGED_CONFIG)
    )
    executor = Executor(database)
    for query in corpus:  # warm the pool and the plan caches
        executor.execute_sql(query.sql)

    def warm_run() -> float:
        start = time.perf_counter()
        for query, want in zip(corpus, expected):
            got = _rows(executor.execute_sql(query.sql))
            assert got == want, query.name
        return time.perf_counter() - start

    cold = _median(cold_run, repeats)
    warm = _median(warm_run, repeats)
    stats = database.storage_stats()["MOVIES"]
    pool = stats["buffer_pool"]
    return {
        "corpus_queries": len(corpus),
        "movies": config.movies,
        "heap_pages": stats["disk"]["pages"],
        "pool_pages": PAGED_CONFIG["buffer_pool_pages"],
        "dataset_over_pool": round(
            stats["disk"]["pages"] / PAGED_CONFIG["buffer_pool_pages"], 1
        ),
        "cold_s": round(cold, 4),
        "warm_s": round(warm, 4),
        "cold_over_warm": round(cold / warm, 2) if warm else None,
        "pool_hits": pool["hits"],
        "pool_misses": pool["misses"],
        "pool_evictions": pool["evictions"],
        "byte_identical": True,  # asserted query-by-query above
    }


def _equivalence_check() -> dict:
    from repro.datasets import movie_database

    configs = {
        "rows": StorageConfig(),
        "paged": StorageConfig(default_engine="paged", **PAGED_CONFIG),
        "columnar": StorageConfig(default_engine="columnar"),
    }
    databases = {
        name: movie_database().with_storage(config)
        for name, config in configs.items()
    }
    executors = {name: Executor(db) for name, db in databases.items()}
    checked = 0
    corpus = [sql for _name, sql in sorted(PAPER_QUERIES.items())]
    corpus += [q.sql for q in generate_workload(queries_per_category=4, seed=11)]
    for sql in corpus:
        want = _rows(executors["rows"].execute_sql(sql))
        for name in ("paged", "columnar"):
            assert _rows(executors[name].execute_sql(sql)) == want, (name, sql)
        checked += 1
    return {"queries_checked": checked, "engines": sorted(configs), "identical": True}


def bench_storage(quick: bool = False) -> dict:
    summary = {
        "budget_max_over_bare": BUDGET_MAX_OVER_BARE,
        "equivalence": _equivalence_check(),
        "columnar": {"small": _scan_pair(200), "large": _scan_pair(2000)},
        "paged": _paged_corpus(2 if quick else 3, 4 if quick else 10),
    }
    large = summary["columnar"]["large"]
    record(
        summary["columnar"],
        large["max_over_bare"] <= BUDGET_MAX_OVER_BARE,
        f"columnar scan takes {large['max_over_bare']}x the bare loop's time at "
        f"2000 movies, over the {BUDGET_MAX_OVER_BARE}x budget",
    )
    return summary


if __name__ == "__main__":
    import json

    result = bench_storage(quick="--quick" in sys.argv)
    print(json.dumps(result, indent=2))
    raise SystemExit(exit_status(result))
