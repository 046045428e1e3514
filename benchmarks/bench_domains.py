"""Multi-domain workload benchmark: the full pipeline per domain.

For every registered domain (``repro.datasets.domains``), run the whole
labelled corpus through translate + execute + narrate and report
per-query latency for the compiled pipeline against the interpreted
oracle — the same two arms the validation harness differences.  The
correctness guard is in-run: before timing, every domain's corpus is
byte-diffed across both arms with :class:`ValidationHarness`, so a
number is only ever printed for workloads the harness holds equivalent.

Standalone by design (not part of ``run_benchmarks.py``'s regression
sections): the domain corpora are a coverage artefact, not a committed
performance budget.

Usage::

    PYTHONPATH=src python benchmarks/bench_domains.py
    PYTHONPATH=src python benchmarks/bench_domains.py --domain twitter --repeats 5
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.catalog import Schema  # noqa: E402
from repro.content.narrator import ContentNarrator  # noqa: E402
from repro.content.presets import NarrationSpec, TemplateRegistry  # noqa: E402
from repro.datasets.domains import DOMAIN_NAMES, Domain, get_domain  # noqa: E402
from repro.engine.executor import Executor  # noqa: E402
from repro.lexicon.lexicon import default_lexicon  # noqa: E402
from repro.query_nl.translator import QueryTranslator  # noqa: E402
from repro.validation import BASELINE_MODE, Mode, ValidationHarness  # noqa: E402

__all__ = ["bench_domains"]


def _pipeline(domain: Domain, compiled: bool):
    """(translate+execute+narrate) closure for one arm over one domain."""
    schema: Schema = domain.schema()
    database = domain.database()
    lexicon = domain.lexicon() or default_lexicon(schema)
    if compiled:
        translator = QueryTranslator(schema, lexicon=lexicon)
        executor = Executor(database)
    else:
        translator = QueryTranslator(
            schema, lexicon=lexicon, phrase_plans=False, cache_size=None
        )
        executor = Executor(database, compiled=False)
    spec = NarrationSpec(
        schema=schema,
        registry=TemplateRegistry(schema, compile_templates=compiled),
        lexicon=lexicon,
    )
    narrator = ContentNarrator(database, spec=spec)

    def run(sql: str) -> None:
        translator.translate(sql)
        try:
            result = executor.execute_sql(sql)
        except Exception:
            return  # impossible-category queries may raise; both arms agree
        narrator.narrate_query_answer(result, subject=sql)

    return run


def _time_corpus(domain: Domain, compiled: bool, repeats: int) -> float:
    """Median per-query latency (ms) over ``repeats`` full-corpus passes."""
    run = _pipeline(domain, compiled)
    corpus = domain.corpus()
    run(corpus[0].sql)  # warm caches, plans, templates
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for query in corpus:
            run(query.sql)
        samples.append((time.perf_counter() - start) / len(corpus))
    return statistics.median(samples) * 1000.0


def bench_domains(names, repeats: int) -> int:
    domains = [get_domain(name) for name in names]
    print("verifying equivalence (compiled vs oracle, rows engine) ...")
    report = ValidationHarness(
        domains=domains, modes=(BASELINE_MODE, Mode("oracle", "rows"))
    ).run()
    if not report.ok:
        print(report.render())
        return 1
    print(f"  ok: {report.total_comparisons} comparisons clean\n")

    width = max(len(name) for name in names)
    header = f"{'domain':<{width}}  queries  compiled ms/q  oracle ms/q  speedup"
    print(header)
    print("-" * len(header))
    for domain in domains:
        compiled_ms = _time_corpus(domain, compiled=True, repeats=repeats)
        oracle_ms = _time_corpus(domain, compiled=False, repeats=repeats)
        print(
            f"{domain.name:<{width}}  {len(domain.corpus()):>7}  "
            f"{compiled_ms:>13.3f}  {oracle_ms:>11.3f}  "
            f"{oracle_ms / compiled_ms:>6.1f}x"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--domain",
        action="append",
        choices=DOMAIN_NAMES,
        help="restrict to one domain (repeatable; default: all)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="corpus passes per arm")
    args = parser.parse_args(argv)
    return bench_domains(tuple(args.domain or DOMAIN_NAMES), args.repeats)


if __name__ == "__main__":
    raise SystemExit(main())
