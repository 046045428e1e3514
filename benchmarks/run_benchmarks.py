#!/usr/bin/env python
"""Run the performance suite and write a JSON summary artifact.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py --output BENCH_perf.json
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick   # CI smoke pass

Measures the compiled execution pipeline (cold = fresh executor per run,
warm = repeated execution on one executor) against the fully-interpreted
seed behaviour on the paper's queries, verifies both paths return
identical answers on Q1-Q9 and the 50-query generated workload, and
records medians plus speedups.  ``--quick`` keeps the interpreted
baseline to the cheap queries so the smoke pass finishes in seconds;
the full run reproduces the seed's minutes-long nested-query baselines.
A missed in-run budget is recorded in its section (``budgets.py``): the
run still measures every section and writes the JSON, then prints each
missed budget and exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import List

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from bench_durability import bench_durability  # noqa: E402
from budgets import exit_status, record  # noqa: E402
from bench_parameterised import bench_parameterised_plans  # noqa: E402
from bench_resilience import bench_resilience  # noqa: E402
from bench_service_throughput import (  # noqa: E402
    bench_service_throughput,
    bench_shard_tier,
)
from bench_storage import bench_storage  # noqa: E402

from repro.content.narrator import ContentNarrator  # noqa: E402
from repro.content.presets import movie_spec  # noqa: E402
from repro.datasets import (  # noqa: E402
    GeneratorConfig,
    PAPER_QUERIES,
    generate_movie_database,
    generate_workload,
    movie_database,
    movie_schema,
)
from repro.engine import Executor  # noqa: E402
from repro.nlg.document import LengthBudget  # noqa: E402
from repro.query_nl.translator import QueryTranslator  # noqa: E402
from repro.querygraph.builder import (  # noqa: E402
    QueryGraphBuilder,
    use_reference_validation,
)
from repro.querygraph.classify import QueryCategory, classify_graph  # noqa: E402
from repro.sql.lexer import tokenize, tokenize_reference  # noqa: E402
from repro.sql.parser import Parser, ReferenceParser, parse_sql  # noqa: E402

#: Interpreted baselines measured per mode.  Q6 interpreted at 200 movies
#: takes ~2 minutes per run; it is only part of the full pass.
_QUICK_BASELINES = ("Q1", "Q2", "Q3", "Q7")
_FULL_BASELINES = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q7", "Q8", "Q9")


def _interpreted(database) -> Executor:
    return Executor(database, compiled=False)


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _interleaved_seconds(fns, rounds: int) -> List[List[float]]:
    """Per-round times of ``fns``, each round running every one in turn.

    A change of host speed between rounds then falls on every function
    of a round alike, so a ratio taken within a round leaves it out.
    """
    timings = []
    for _ in range(rounds):
        times = []
        for fn in fns:
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        timings.append(times)
    return timings


def _round_ratio(timings: List[List[float]], numerator: int, denominator: int) -> float:
    """The median over rounds of one function's time over another's."""
    return statistics.median(
        times[numerator] / max(times[denominator], 1e-9) for times in timings
    )


def bench_database(movies: int, repeats: int, baselines) -> dict:
    database = generate_movie_database(
        GeneratorConfig(
            movies=movies, directors=max(4, movies // 10), actors=max(10, movies // 4)
        )
    )
    results = {}
    warm_executor = Executor(database)
    cold, warm, interpreted = 0, 2, 3  # columns of a round's times
    for name, sql in PAPER_QUERIES.items():
        warm_run = lambda: warm_executor.execute_sql(sql)  # noqa: E731
        # A round runs the warm plan twice and keeps the second time, so
        # that run finds the CPU caches as back-to-back warm runs do.
        compiled = [lambda: Executor(database).execute_sql(sql), warm_run, warm_run]
        # Untimed: the warm executor sees the shape twice (first sighting,
        # then the compile), so every timed warm run hits its shape plan,
        # and a cold run pays the process's first-run costs.
        warm_executor.execute_sql(sql)
        for run in compiled[:2]:
            run()
        # The interpreted runs take the first rounds; every speedup is
        # the median of the ratios within those rounds.
        paired = []
        if name in baselines:
            paired = _interleaved_seconds(
                compiled + [lambda: _interpreted(database).execute_sql(sql)],
                max(1, repeats // 2),
            )
        timings = paired + _interleaved_seconds(compiled, repeats - len(paired))
        entry = {
            "compiled_cold_s": statistics.median(times[cold] for times in timings),
            "compiled_warm_s": statistics.median(times[warm] for times in timings),
        }
        if paired:
            entry["interpreted_s"] = statistics.median(
                times[interpreted] for times in paired
            )
            entry["speedup_cold"] = round(_round_ratio(paired, interpreted, cold), 1)
            entry["speedup_warm"] = round(_round_ratio(paired, interpreted, warm), 1)
        results[name] = entry
    # Regression guard: Q6 (relational division) has no interpreted
    # baseline to show a ratio against, so compare it with Q4 from the
    # same rounds: a join of MOVIES and CAST with no pushed equality,
    # which the planner leaves on hash joins over full scans, so its cold
    # cost grows with the data as Q6's does.  Decided by set containment
    # Q6 costs a few Q4s cold; a relapse to per-row evaluation grows with
    # the square of the movies.
    division_ratio = _round_ratio(
        _interleaved_seconds(
            [
                lambda: Executor(database).execute_sql(PAPER_QUERIES["Q6"]),
                lambda: Executor(database).execute_sql(PAPER_QUERIES["Q4"]),
            ],
            repeats,
        ),
        0,
        1,
    )
    section = {
        "total_rows": database.total_rows,
        "queries": results,
        "q6_vs_q4_cold": round(division_ratio, 2),
    }
    record(
        section,
        division_ratio <= 5,
        f"engine regression: Q6 cold is {division_ratio:.1f}x Q4 cold at"
        f" {movies} movies (expected <= 5x; relational division is being"
        " evaluated per outer row)",
    )
    return section


def bench_workload(movies: int, repeats: int) -> dict:
    database = generate_movie_database(
        GeneratorConfig(
            movies=movies, directors=max(4, movies // 10), actors=max(10, movies // 4)
        )
    )
    workload = generate_workload(queries_per_category=10, seed=42)
    executor = Executor(database)
    compiled = _median_seconds(
        lambda: [executor.execute_sql(q.sql) for q in workload], repeats
    )
    interpreted = _median_seconds(
        lambda: [_interpreted(database).execute_sql(q.sql) for q in workload],
        max(1, repeats // 2),
    )
    return {
        "queries": len(workload),
        "compiled_s": compiled,
        "interpreted_s": interpreted,
        "speedup": round(interpreted / max(compiled, 1e-9), 1),
    }


def _median_warm(fn, repeats: int) -> float:
    """Median over ``repeats`` after two untimed warm-up runs."""
    fn()
    fn()
    return _median_seconds(fn, repeats)


def bench_narration(repeats: int) -> dict:
    """Measure the narration front end and verify its equivalences in-run.

    Reference numbers (``frontend_reference``) were measured with this
    exact procedure at commit 86a0ff0 (the tree before the compiled
    narration front end landed) on the reference container; the speedups
    below compare against them.  ``cold`` means a fresh translator /
    narrator per repetition with every query-level cache starting empty
    (the compile-once machinery — regexes, compiled templates, graph
    adjacency — is module/schema-level by design, exactly like the
    engine's compiled closures).
    """
    reference = {
        "cold_translate_s": 0.02111,
        "cold_translate_unique_s": 0.02044,
        "narrate_database_s": 0.14314,
        "narrate_relation_s": 0.13351,
    }
    schema = movie_schema()
    workload = [q.sql for q in generate_workload(queries_per_category=10, seed=42)]

    results: dict = {"workload_queries": len(workload)}
    results["tokenize_regex_s"] = _median_warm(
        lambda: [tokenize(sql) for sql in workload], repeats
    )
    results["tokenize_char_s"] = _median_warm(
        lambda: [tokenize_reference(sql) for sql in workload], repeats
    )
    results["cold_translate_s"] = _median_warm(
        lambda: [QueryTranslator(schema).translate(sql) for sql in workload], repeats
    )
    results["cold_translate_unique_s"] = _median_warm(
        lambda: [
            QueryTranslator(schema, cache_size=None).translate(sql) for sql in workload
        ],
        repeats,
    )
    warm_translator = QueryTranslator(schema)
    results["warm_translate_s"] = _median_warm(
        lambda: [warm_translator.translate(sql) for sql in workload], repeats
    )

    database = generate_movie_database(
        GeneratorConfig(movies=200, directors=20, actors=50)
    )
    spec = movie_spec(database.schema)
    budget = LengthBudget(max_sentences=12)
    results["narrate_database_s"] = _median_warm(
        lambda: ContentNarrator(database, spec=spec).narrate_database(budget=budget),
        repeats,
    )
    results["narrate_relation_s"] = _median_warm(
        lambda: ContentNarrator(database, spec=spec).narrate_relation(
            "MOVIES", budget=budget
        ),
        repeats,
    )

    results["frontend_reference"] = reference
    for key, base in reference.items():
        results[f"speedup_{key.removesuffix('_s')}"] = round(
            base / max(results[key], 1e-9), 1
        )
    results["tokenize_speedup_vs_char"] = round(
        results["tokenize_char_s"] / max(results["tokenize_regex_s"], 1e-9), 1
    )
    results["equivalence"] = verify_narration_equivalence(database, spec)
    return results


def bench_translation_core(repeats: int) -> dict:
    """Stage-split translation benchmark and the compiled-core speedups.

    Reference numbers (``translation_reference``) were measured with this
    exact procedure at commit 165e2bb (the PR 2 tree, before the compiled
    translation core landed) on the reference container.  Stages are
    measured in isolation over the 50-query generated workload: ``lex``
    tokenizes, ``parse`` parses pre-lexed token lists, ``validate_build``
    builds query graphs (validation fused) from pre-parsed ASTs, and
    ``phrase_render`` classifies prebuilt graphs and runs the category
    translators.  ``cold_translate`` is a fresh translator over the
    workload (phrase plans are per-schema, like compiled templates);
    ``warm_repeated_shape`` translates literal-rotated variants so the
    exact-text LRU never hits and every query exercises the shape-keyed
    plan path.  The in-run equivalence checks compare each fast path
    against its interpreted oracle, and a regression guard fails the run
    if the plan path stops beating the full pipeline.
    """
    reference = {
        "lex_s": 0.0019865,
        "parse_s": 0.0031214,
        "validate_build_s": 0.0026911,
        "phrase_render_s": 0.0018370,
        "cold_translate_s": 0.0068941,
        "cold_translate_unique_s": 0.0111934,
        "warm_repeated_shape_s": 0.0114552,
    }
    schema = movie_schema()
    workload = [q.sql for q in generate_workload(queries_per_category=10, seed=42)]
    tokens = [tokenize(sql) for sql in workload]
    statements = [parse_sql(sql) for sql in workload]

    results: dict = {"workload_queries": len(workload)}
    results["lex_s"] = _median_warm(lambda: [tokenize(sql) for sql in workload], repeats)
    results["parse_s"] = _median_warm(
        lambda: [Parser(token_list).parse_statement() for token_list in tokens], repeats
    )
    results["parse_reference_s"] = _median_warm(
        lambda: [ReferenceParser(token_list).parse_statement() for token_list in tokens],
        repeats,
    )
    builder = QueryGraphBuilder(schema)
    results["validate_build_s"] = _median_warm(
        lambda: [builder.build(statement) for statement in statements], repeats
    )

    def build_reference():
        reference_builder = QueryGraphBuilder(schema)
        with use_reference_validation():
            return [reference_builder.build(statement) for statement in statements]

    results["validate_build_reference_s"] = _median_warm(build_reference, repeats)

    translator = QueryTranslator(schema, cache_size=None, phrase_plans=False)
    graphs = [translator.builder.build(statement) for statement in statements]

    def phrase_render():
        rendered = []
        for graph in graphs:
            category = classify_graph(graph).category
            if category in (QueryCategory.PATH, QueryCategory.SUBGRAPH, QueryCategory.GRAPH):
                rendered.append(translator._spj.translate(graph))
            elif category is QueryCategory.NESTED:
                rendered.append(translator._nested.translate(graph))
            elif category is QueryCategory.AGGREGATE:
                rendered.append(translator._aggregate.translate(graph))
            else:
                rendered.append(translator._impossible.translate(graph))
        return rendered

    results["phrase_render_s"] = _median_warm(phrase_render, repeats)

    results["cold_translate_s"] = _median_warm(
        lambda: [QueryTranslator(schema).translate(sql) for sql in workload], repeats
    )
    results["cold_translate_unique_s"] = _median_warm(
        lambda: [
            QueryTranslator(schema, cache_size=None).translate(sql) for sql in workload
        ],
        repeats,
    )
    results["cold_translate_oracle_s"] = _median_warm(
        lambda: [
            QueryTranslator(schema, phrase_plans=False).translate(sql)
            for sql in workload
        ],
        repeats,
    )

    names = [
        "Brad Pitt", "Scarlett Johansson", "Mark Hamill",
        "Morgan Freeman", "Woody Allen", "G. Loucas",
    ]
    warm_translator = QueryTranslator(schema, cache_size=None)
    batches = [
        [sql.replace("Brad Pitt", names[(round_number + index) % len(names)])
         for index, sql in enumerate(workload)]
        for round_number in range(16)
    ]
    round_counter = [0]

    def warm_repeated_shape():
        round_counter[0] = (round_counter[0] + 1) % len(batches)
        return [warm_translator.translate(sql) for sql in batches[round_counter[0]]]

    results["warm_repeated_shape_s"] = _median_warm(warm_repeated_shape, repeats)

    results["translation_reference"] = reference
    for key, base in reference.items():
        results[f"speedup_{key.removesuffix('_s')}"] = round(
            base / max(results[key], 1e-9), 1
        )
    results["equivalence"] = verify_translation_equivalence(schema, workload, batches)
    # Regression guard: the shape-keyed plan path must keep beating the
    # full pipeline on the cold workload by a comfortable margin.
    guard_ratio = results["cold_translate_oracle_s"] / max(
        results["cold_translate_s"], 1e-9
    )
    results["plan_vs_full_ratio"] = round(guard_ratio, 1)
    record(
        results,
        guard_ratio >= 1.5,
        "translate-bench regression: plan-path cold translate is only"
        f" {guard_ratio:.2f}x the full pipeline (expected >= 1.5x)",
    )
    return results


def verify_translation_equivalence(schema, workload, variant_batches) -> dict:
    """The translation core's three differential guarantees, checked in-run."""
    corpus = list(PAPER_QUERIES.values()) + workload
    for sql in corpus:
        fast = Parser(tokenize(sql)).parse_statement()
        slow = ReferenceParser(tokenize(sql)).parse_statement()
        if fast != slow:
            raise AssertionError(f"Pratt and reference parsers differ on {sql!r}")

    fused_builder = QueryGraphBuilder(schema)
    oracle_builder = QueryGraphBuilder(schema)
    for sql in corpus:
        fused = fused_builder.build(parse_sql(sql))
        with use_reference_validation():
            oracle = oracle_builder.build(parse_sql(sql))
        if str(fused.statement) != str(oracle.statement) or sorted(
            fused.classes
        ) != sorted(oracle.classes):
            raise AssertionError(f"fused and oracle builds differ on {sql!r}")

    fast_translator = QueryTranslator(schema, cache_size=None)
    oracle_translator = QueryTranslator(schema, cache_size=None, phrase_plans=False)
    checked = 0
    for sql in corpus + variant_batches[0] + variant_batches[1]:
        fast = fast_translator.translate(sql)
        slow = oracle_translator.translate(sql)
        if fast != slow:  # compares every textual field
            raise AssertionError(f"phrase plans and full pipeline differ on {sql!r}")
        checked += 1
    return {
        "parser": f"AST-identical ({len(corpus)} queries)",
        "fused_validation": "graphs identical to the standalone-validator pipeline",
        "phrase_plans": f"byte-identical to the full pipeline ({checked} translations)",
    }


def verify_narration_equivalence(database, spec) -> dict:
    """The three front-end differential guarantees, checked in-run."""
    workload = [q.sql for q in generate_workload(queries_per_category=10, seed=42)]
    for sql in list(PAPER_QUERIES.values()) + workload:
        fast = tokenize(sql)
        slow = tokenize_reference(sql)
        if [(t.type, t.value, t.line, t.column) for t in fast] != [
            (t.type, t.value, t.line, t.column) for t in slow
        ]:
            raise AssertionError(f"regex and char lexers differ on {sql!r}")

    interpreted_spec = movie_spec(database.schema)
    interpreted_spec.registry.compile_templates = False
    budget = LengthBudget(max_sentences=12)
    narrator = ContentNarrator(database, spec=spec)
    interpreted = ContentNarrator(database, spec=interpreted_spec)
    if narrator.narrate_database(budget=budget) != interpreted.narrate_database(
        budget=budget
    ):
        raise AssertionError("compiled and interpreted templates narrate differently")
    for budget_case in (budget, LengthBudget(max_words=60), None):
        if narrator.narrate_relation(
            "MOVIES", budget=budget_case
        ) != narrator.narrate_relation("MOVIES", budget=budget_case, streaming=False):
            raise AssertionError("streaming and eager relation narration differ")
    return {
        "lexers": f"token-identical ({9 + len(workload)} queries)",
        "templates": "compiled narration byte-identical to interpreted",
        "streaming": "narrate_relation byte-identical to eager under all tested budgets",
    }


def verify_equivalence() -> dict:
    """Compiled and interpreted paths must agree on every answer."""
    database = movie_database()
    fast, slow = Executor(database), _interpreted(database)
    for name, sql in PAPER_QUERIES.items():
        a, b = fast.execute_sql(sql), slow.execute_sql(sql)
        if a.columns != b.columns or a.rows != b.rows:
            raise AssertionError(f"compiled and interpreted differ on {name}")
    workload = generate_workload(queries_per_category=10, seed=42)
    for query in workload:
        a, b = fast.execute_sql(query.sql), slow.execute_sql(query.sql)
        if a.columns != b.columns or a.rows != b.rows:
            raise AssertionError(f"compiled and interpreted differ on {query.name}")
    return {
        "paper_queries": "identical",
        "generated_workload": f"identical ({len(workload)} queries)",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_perf.json", help="JSON artifact path")
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats (median)")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke pass: 50-movie database, cheap interpreted baselines only",
    )
    args = parser.parse_args(argv)
    args.repeats = max(1, args.repeats)

    sizes = [50] if args.quick else [50, 200, 1000]
    baselines = _QUICK_BASELINES if args.quick else _FULL_BASELINES
    summary = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": "quick" if args.quick else "full",
        "repeats": args.repeats,
        "seed_reference": {
            "note": (
                "medians of the fully-interpreted executor measured at the seed"
                " commit (33c7117) on the reference container; the live"
                " 'interpreted_s' baselines below are the same pipeline inside"
                " this tree (slightly faster than seed after the satellite"
                " fixes, so speedups are conservative)"
            ),
            "Q2_200movies_s": 0.00547,
            "Q5_200movies_s": 25.33,
            "Q6_200movies_s": 124.81,
            "Q7_200movies_s": 0.3006,
        },
        "equivalence": verify_equivalence(),
        "databases": {},
    }
    # The compiled-path sections (parameterised plans, service,
    # translation core, narration front end) are all measured before the
    # minutes-long interpreted executor baselines heat the process up.
    print("benchmarking parameterised plans ...", flush=True)
    summary["parameterised_plans"] = bench_parameterised_plans(
        quick=args.quick, repeats=max(5, args.repeats)
    )
    print("benchmarking concurrent service ...", flush=True)
    summary["service_throughput"] = bench_service_throughput(quick=args.quick)
    print("benchmarking shard tier ...", flush=True)
    summary["shard_tier"] = bench_shard_tier(quick=args.quick)
    print("benchmarking resilience overhead ...", flush=True)
    summary["resilience"] = bench_resilience(quick=args.quick)
    print("benchmarking durability cost ...", flush=True)
    summary["durability"] = bench_durability(quick=args.quick)
    print("benchmarking storage engines ...", flush=True)
    summary["storage"] = bench_storage(quick=args.quick)
    print("benchmarking translation core ...", flush=True)
    summary["translation_core"] = bench_translation_core(max(5, args.repeats))
    print("benchmarking narration front end ...", flush=True)
    summary["narration_frontend"] = bench_narration(max(5, args.repeats))
    for movies in sizes:
        print(f"benchmarking {movies} movies ...", flush=True)
        # Interpreted Q5 scales quadratically (25s at 200 movies, ~10min at
        # 1000); keep its baseline to the sizes where it finishes.
        size_baselines = tuple(b for b in baselines if b != "Q5" or movies < 1000)
        summary["databases"][str(movies)] = bench_database(
            movies, args.repeats, size_baselines
        )
    # The workload baseline includes nested queries, so it stays at 50
    # movies where the interpreted pass finishes in seconds.
    summary["workload_50_queries"] = bench_workload(50, args.repeats)

    output = Path(args.output)
    output.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {output}")
    for movies, data in summary["databases"].items():
        for name, entry in data["queries"].items():
            if "speedup_cold" in entry:
                print(
                    f"  {movies} movies {name}: interpreted {entry['interpreted_s']:.4f}s"
                    f" -> compiled {entry['compiled_cold_s']:.4f}s cold"
                    f" ({entry['speedup_cold']}x), {entry['compiled_warm_s']:.6f}s warm"
                    f" ({entry['speedup_warm']}x)"
                )
    print(f"  workload: {summary['workload_50_queries']}")
    core = summary["translation_core"]
    print(
        "  translation core:"
        f" lex {core['lex_s']*1e3:.2f}ms ({core['speedup_lex']}x);"
        f" parse {core['parse_s']*1e3:.2f}ms ({core['speedup_parse']}x);"
        f" validate+build {core['validate_build_s']*1e3:.2f}ms"
        f" ({core['speedup_validate_build']}x);"
        f" phrase render {core['phrase_render_s']*1e3:.2f}ms"
        f" ({core['speedup_phrase_render']}x);"
        f" cold translate {core['cold_translate_s']*1e3:.2f}ms"
        f" ({core['speedup_cold_translate']}x vs 165e2bb);"
        f" warm repeated-shape {core['warm_repeated_shape_s']*1e3:.2f}ms"
        f" ({core['speedup_warm_repeated_shape']}x)"
    )
    service = summary["service_throughput"]
    top = service["clients"]["64"]
    print(
        "  concurrent service:"
        f" 64 clients {top['service_rps']:.0f} req/s vs naive"
        f" {top['naive_rps']:.0f} req/s ({top['speedup']}x);"
        f" plan-path variants {service['literal_variants_rps_64']:.0f} req/s"
    )
    shard = summary["shard_tier"]
    shard_top = {
        workers: entry["clients"]["64"]["rps"]
        for workers, entry in shard["workers"].items()
    }
    print(
        f"  shard tier ({shard['cpu_count']} cores):"
        + "".join(
            f" {workers}w {rps:.0f} req/s"
            f" ({shard['workers'][workers]['speedup_vs_single_process']}x);"
            for workers, rps in shard_top.items()
        )
        + f" ipc round-trip p50 {shard['ipc_round_trip_p50_ms']:.2f}ms"
    )
    resilience = summary["resilience"]
    per_request_ns = (
        resilience["micro_ns"]["deadline_after_none"]
        + resilience["micro_ns"]["admission_admit"]
    )
    queued_us = resilience["queued_execute"]["p50_default_us"]
    print(
        "  resilience overhead:"
        f" deadline + admit {per_request_ns:.0f}ns of a"
        f" {resilience['reference_request_us']:.1f}us reference request"
        f" ({resilience['budget_pct']:.2f}% per round,"
        f" budget <1% {'met' if resilience['passes_budget'] else 'MISSED'});"
        f" timed, information only: cached translate"
        f" {resilience['fast_path']['p50_bypassed_us']:.1f}us ->"
        f" {resilience['fast_path']['p50_default_us']:.1f}us"
        f" ({resilience['fast_path']['regression_pct']:+.1f}%),"
        f" inline execute {resilience['queued_execute']['p50_bypassed_us']:.1f}us ->"
        f" {queued_us:.1f}us"
        f" ({resilience['queued_execute']['regression_pct']:+.1f}%)"
    )
    durability = summary["durability"]["service"]
    print(
        "  durability cost (service mutations):"
        f" non-durable {durability['plain_ops_s']:.0f}/s ->"
        f" fsync=batch {durability['batch_ops_s']:.0f}/s"
        f" ({durability['batch_slowdown']:.2f}x, budget"
        f" {'met' if durability['passes_budget'] else 'MISSED'}),"
        f" fsync=always {durability['always_ops_s']:.0f}/s"
        f" ({durability['always_slowdown']:.2f}x)"
    )
    storage = summary["storage"]
    large = storage["columnar"]["large"]
    paged = storage["paged"]
    print(
        "  storage engines:"
        f" columnar full-scan filter at {large['movies']} movies"
        f" {large['max_over_bare']:.2f}x a bare loop's time (budget"
        f" {'met' if storage['columnar']['passes_budget'] else 'MISSED'}),"
        f" {large['min_speedup']:.2f}x over dict rows;"
        f" paged corpus with dataset {paged['dataset_over_pool']}x the pool"
        f" cold {paged['cold_s']:.2f}s / warm {paged['warm_s']:.2f}s,"
        f" byte-identical {paged['byte_identical']}"
    )
    parameterised = summary["parameterised_plans"]
    print(
        "  parameterised plans:"
        f" warm same-shape point queries {parameterised['warm_shape_per_text_s']*1e3:.2f}ms"
        f" per-text -> {parameterised['warm_shape_parameterised_s']*1e3:.2f}ms shared"
        f" ({parameterised['speedup_warm_shape']}x);"
        f" mixed workload {parameterised['speedup_warm_shape_workload']}x;"
        f" {parameterised['service_equivalence']}"
    )
    frontend = summary["narration_frontend"]
    print(
        "  narration front end:"
        f" tokenize {frontend['tokenize_char_s']*1e3:.2f}ms char ->"
        f" {frontend['tokenize_regex_s']*1e3:.2f}ms regex"
        f" ({frontend['tokenize_speedup_vs_char']}x);"
        f" cold translate {frontend['cold_translate_s']*1e3:.2f}ms"
        f" ({frontend['speedup_cold_translate']}x vs 86a0ff0);"
        f" narrate_database {frontend['narrate_database_s']*1e3:.2f}ms"
        f" ({frontend['speedup_narrate_database']}x vs 86a0ff0)"
    )
    return exit_status(summary)


if __name__ == "__main__":
    raise SystemExit(main())
