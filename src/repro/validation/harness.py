"""Batch differential validation across domains, pipelines and engines.

Every compiled fast path in the repo keeps its interpreted twin (the
reference lexer/parser/validator, interpreted execution, plain phrase
rendering) — see ``repro.oracle``.  This harness turns that design into a
batch weapon: it runs every corpus query of every registered domain
through the full mode matrix

    {compiled pipeline, oracle pipeline} x {rows, paged, columnar}

captures what each mode produced at every stage (translation text,
classified category, result rows, narration, or the canonicalised error),
byte-diffs each mode against the ``compiled/rows`` baseline, and reports
every divergence classified by kind.  A clean run is the repo's strongest
equivalence statement; a mismatch pinpoints the stage AND the axis
(pipeline vs engine) that disagreed.

Compiled cells evaluate every query :data:`COMPILED_SIGHTINGS` times,
because the shape-keyed caches admit a shape on its second sighting: the
first evaluation runs the full, uncompiled pipelines, the second compiles
the phrase plan and the shape plan, and the third is served by both
(the compiled translator runs without its exact-text LRU, so the third
translation is rendered from the phrase plan).  Each sighting is diffed
against the baseline's first; a later sighting's mismatch names its cell
``<mode>#<n>``.

The ``mutate`` hook exists so tests can prove the differ is live: inject
a corruption into one mode's outcome and the report must flag it.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

from repro.content.narrator import ContentNarrator
from repro.content.presets import NarrationSpec, TemplateRegistry
from repro.datasets.domains import CorpusQuery, Domain, all_domains
from repro.engine.executor import Executor
from repro.engine.result import QueryResult
from repro.lexicon.lexicon import default_lexicon
from repro.query_nl.translator import QueryTranslator
from repro.querygraph.builder import use_reference_validation
from repro.sql.lexer import use_reference_lexer
from repro.sql.parser import use_reference_parser
from repro.storage.config import StorageConfig
from repro.validation.report import (
    DomainReport,
    Mismatch,
    QueryOutcome,
    ValidationReport,
)

__all__ = [
    "BASELINE_MODE",
    "Mode",
    "ValidationHarness",
    "default_modes",
]

PIPELINES = ("compiled", "oracle")
ENGINES = ("rows", "paged", "columnar")

#: A deliberately tiny buffer pool so paged runs exercise eviction.
_PAGED_STRESS = {"page_size": 512, "buffer_pool_pages": 4}

#: Evaluations of each query in a compiled cell: first sighting,
#: admission (plans compiled) and plan hit.
COMPILED_SIGHTINGS = 3


@dataclass(frozen=True)
class Mode:
    """One cell of the matrix: a pipeline flavour on a storage engine."""

    pipeline: str
    engine: str

    def __post_init__(self) -> None:
        if self.pipeline not in PIPELINES:
            raise ValueError(f"pipeline must be one of {PIPELINES}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")

    @property
    def key(self) -> str:
        return f"{self.pipeline}/{self.engine}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.key


BASELINE_MODE = Mode("compiled", "rows")


def default_modes() -> Tuple[Mode, ...]:
    """The full matrix, baseline first."""
    modes = [BASELINE_MODE]
    modes.extend(
        Mode(pipeline, engine)
        for pipeline in PIPELINES
        for engine in ENGINES
        if Mode(pipeline, engine) != BASELINE_MODE
    )
    return tuple(modes)


def _storage_for(engine: str) -> StorageConfig:
    if engine == "paged":
        return StorageConfig(default_engine="paged", **_PAGED_STRESS)
    return StorageConfig(default_engine=engine)


@contextlib.contextmanager
def _oracle_pipeline() -> Iterator[None]:
    """Force every retained reference implementation at once."""
    with use_reference_lexer(), use_reference_parser(), use_reference_validation():
        yield


def _canonical_error(error: BaseException) -> str:
    """Errors compare by type and arguments, not by formatted message id."""
    return f"{type(error).__name__}{tuple(str(a) for a in error.args)!r}"


def _canonical_rows(result: QueryResult) -> str:
    """Byte-exact rendering: column names plus tuples in result order.

    Row ORDER is part of the contract — every engine must enumerate an
    identically loaded relation identically — so the rendering does not
    sort.
    """
    header = ",".join(result.columns)
    body = ";".join(repr(row) for row in result.to_tuples())
    return f"[{header}]{body}"


#: Signature of the injected-mismatch hook: (mode, domain name, query,
#: outcome) -> outcome.  Returning a different outcome corrupts that cell.
MutateHook = Callable[[Mode, str, CorpusQuery, QueryOutcome], QueryOutcome]


class ValidationHarness:
    """Run corpora through the mode matrix and diff against the baseline."""

    def __init__(
        self,
        domains: Optional[Iterable[Domain]] = None,
        modes: Optional[Sequence[Mode]] = None,
        seed: int = 0,
        scale: int = 1,
        narrate: bool = True,
        mutate: Optional[MutateHook] = None,
    ) -> None:
        self.domains = list(domains) if domains is not None else all_domains()
        self.modes = tuple(modes) if modes is not None else default_modes()
        if BASELINE_MODE not in self.modes:
            raise ValueError(f"modes must include the baseline {BASELINE_MODE.key}")
        self.seed = seed
        self.scale = scale
        self.narrate = narrate
        self.mutate = mutate

    # ------------------------------------------------------------------

    def run(self) -> ValidationReport:
        report = ValidationReport(baseline=BASELINE_MODE.key)
        for domain in self.domains:
            report.domains.append(self.run_domain(domain))
        return report

    def run_domain(self, domain: Domain) -> DomainReport:
        corpus = domain.corpus()
        outcomes = {mode: self._run_mode(domain, mode, corpus) for mode in self.modes}
        report = DomainReport(
            domain=domain.name,
            queries=len(corpus),
            modes=[mode.key for mode in self.modes],
        )
        baseline = [runs[0] for runs in outcomes[BASELINE_MODE]]
        # The corpus label is part of the contract too: the baseline's
        # classification must agree with the category the corpus promises.
        for query, outcome in zip(corpus, baseline):
            if outcome.category is not None and outcome.category != query.category:
                report.mismatches.append(
                    Mismatch(
                        domain=domain.name,
                        query=query.name,
                        mode=BASELINE_MODE.key,
                        kind="taxonomy",
                        baseline=query.category,
                        observed=outcome.category,
                    )
                )
        for mode in self.modes:
            for query, base, runs in zip(corpus, baseline, outcomes[mode]):
                for sighting, other in enumerate(runs, 1):
                    if mode == BASELINE_MODE and sighting == 1:
                        continue
                    cell = mode.key if sighting == 1 else f"{mode.key}#{sighting}"
                    report.mismatches.extend(
                        self._diff(domain.name, query.name, cell, base, other)
                    )
        return report

    # ------------------------------------------------------------------

    def _run_mode(
        self, domain: Domain, mode: Mode, corpus: Tuple[CorpusQuery, ...]
    ) -> list:
        """Per query, the outcomes of its successive evaluations in ``mode``."""
        context = _oracle_pipeline() if mode.pipeline == "oracle" else contextlib.nullcontext()
        with context:
            schema = domain.schema()
            database = domain.database(
                seed=self.seed, scale=self.scale, storage=_storage_for(mode.engine)
            )
            lexicon = domain.lexicon() or default_lexicon(schema)
            spec = NarrationSpec(
                schema=schema, registry=TemplateRegistry(schema), lexicon=lexicon
            )
            if mode.pipeline == "oracle":
                translator = QueryTranslator(
                    schema, lexicon=lexicon, phrase_plans=False, cache_size=None
                )
                executor = Executor(database, compiled=False)
            else:
                translator = QueryTranslator(
                    schema, lexicon=lexicon, phrase_plans=True, cache_size=None
                )
                executor = Executor(database, compiled=True, parameterised=True)
            narrator = ContentNarrator(database, spec=spec) if self.narrate else None
            sightings = COMPILED_SIGHTINGS if mode.pipeline == "compiled" else 1
            outcomes = []
            for query in corpus:
                runs = []
                for _ in range(sightings):
                    outcome = self._evaluate(query, translator, executor, narrator)
                    if self.mutate is not None:
                        outcome = self.mutate(mode, domain.name, query, outcome)
                    runs.append(outcome)
                outcomes.append(runs)
            return outcomes

    def _evaluate(
        self,
        query: CorpusQuery,
        translator: QueryTranslator,
        executor: Executor,
        narrator: Optional[ContentNarrator],
    ) -> QueryOutcome:
        translation = category = rows = narration = error = None
        subject = "The query"
        try:
            translated = translator.translate(query.sql)
            translation = translated.text
            if translated.category is not None:
                category = translated.category.value
            subject = translated.text
        except Exception as exc:  # noqa: BLE001 - errors are data here
            error = _canonical_error(exc)
        try:
            result = executor.execute_sql(query.sql)
            if isinstance(result, QueryResult):
                rows = _canonical_rows(result)
                if narrator is not None:
                    narration = narrator.narrate_query_answer(result, subject=subject)
        except Exception as exc:  # noqa: BLE001
            error = _canonical_error(exc) if error is None else error
        return QueryOutcome(
            query=query.name,
            expected_category=query.category,
            translation=translation,
            category=category,
            rows=rows,
            narration=narration,
            error=error,
        )

    def _diff(
        self,
        domain: str,
        query: str,
        cell: str,
        base: QueryOutcome,
        other: QueryOutcome,
    ) -> list:
        mismatches = []

        def flag(kind: str, baseline_value, observed_value) -> None:
            mismatches.append(
                Mismatch(
                    domain=domain,
                    query=query,
                    mode=cell,
                    kind=kind,
                    baseline=baseline_value,
                    observed=observed_value,
                )
            )

        if base.error != other.error:
            flag("error", base.error, other.error)
        if base.translation != other.translation:
            flag("translation", base.translation, other.translation)
        if base.category != other.category:
            flag("category", base.category, other.category)
        if base.rows != other.rows:
            flag("rows", base.rows, other.rows)
        if base.narration != other.narration:
            flag("narration", base.narration, other.narration)
        return mismatches
