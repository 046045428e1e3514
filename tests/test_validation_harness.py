"""The batch differential-validation harness and its CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datasets.domains import CorpusQuery, Domain, get_domain
from repro.validation import (
    BASELINE_MODE,
    Mode,
    ValidationHarness,
    ValidationReport,
    default_modes,
)
from repro.validation.report import Mismatch, QueryOutcome

REPO = Path(__file__).resolve().parent.parent


def mini_domain() -> Domain:
    """A tiny unregistered domain so differ tests stay fast."""
    twitter = get_domain("twitter")
    return Domain(
        name="mini",
        description="three-query probe over the twitter schema",
        schema_factory=twitter.schema_factory,
        database_factory=twitter.database_factory,
        lexicon_factory=twitter.lexicon_factory,
        corpus_factory=lambda: [
            CorpusQuery(
                "scan",
                "select u.handle from USERS u where u.country = 'norway'",
                "path",
            ),
            CorpusQuery(
                "agg",
                "select u.country, count(*) from USERS u group by u.country",
                "aggregate",
            ),
            CorpusQuery(
                "boom",
                "select u.nosuchcolumn from USERS u",
                "path",
            ),
        ],
    )


class TestModes:
    def test_default_matrix_is_baseline_first_and_complete(self):
        modes = default_modes()
        assert modes[0] == BASELINE_MODE
        assert len(modes) == 6
        assert len(set(modes)) == 6

    def test_mode_validates_axes(self):
        with pytest.raises(ValueError):
            Mode("jit", "rows")
        with pytest.raises(ValueError):
            Mode("compiled", "tape")

    def test_harness_requires_baseline_mode(self):
        with pytest.raises(ValueError, match="baseline"):
            ValidationHarness(domains=[mini_domain()], modes=(Mode("oracle", "rows"),))


class TestZeroDiff:
    def test_mini_domain_full_matrix_is_clean(self):
        report = ValidationHarness(domains=[mini_domain()]).run()
        assert report.ok
        assert report.total_queries == 3
        assert report.total_comparisons == 3 * 5
        assert "PASS" in report.render()

    def test_real_domain_across_both_axes(self):
        # One registered domain across both matrix axes (the full
        # five-domain matrix runs in the corpus-validate CI job).
        modes = (
            BASELINE_MODE,
            Mode("oracle", "rows"),
            Mode("compiled", "paged"),
            Mode("compiled", "columnar"),
        )
        report = ValidationHarness(domains=[get_domain("twitter")], modes=modes).run()
        assert report.ok, report.render()

    def test_errors_agree_across_modes(self):
        # The "boom" query fails identically everywhere, so a clean run
        # proves error OBJECTS are compared, not just successes.
        report = ValidationHarness(domains=[mini_domain()]).run()
        assert report.ok


class TestInjectedMismatches:
    def _run_with(self, mutate) -> ValidationReport:
        return ValidationHarness(
            domains=[mini_domain()],
            modes=(BASELINE_MODE, Mode("oracle", "columnar")),
            mutate=mutate,
        ).run()

    def test_corrupted_cell_is_reported_with_all_kinds(self):
        def mutate(mode, domain, query, outcome):
            if mode != BASELINE_MODE and query.name == "scan":
                return QueryOutcome(
                    query=outcome.query,
                    expected_category=outcome.expected_category,
                    translation="corrupted translation",
                    category=outcome.category,
                    rows="corrupted rows",
                    narration="corrupted narration",
                    error=outcome.error,
                )
            return outcome

        report = self._run_with(mutate)
        assert not report.ok
        kinds = {m.kind for m in report.mismatches}
        assert kinds == {"translation", "rows", "narration"}
        assert all(m.query == "scan" for m in report.mismatches)
        assert all(m.mode == "oracle/columnar" for m in report.mismatches)

    def test_error_divergence_is_classified_as_error(self):
        def mutate(mode, domain, query, outcome):
            if mode != BASELINE_MODE and query.name == "boom":
                return QueryOutcome(
                    query=outcome.query,
                    expected_category=outcome.expected_category,
                    error="SomeOtherError('different',)",
                )
            return outcome

        report = self._run_with(mutate)
        assert any(m.kind == "error" and m.query == "boom" for m in report.mismatches)

    def test_category_flip_in_baseline_is_a_taxonomy_mismatch(self):
        def mutate(mode, domain, query, outcome):
            if mode == BASELINE_MODE and query.name == "agg":
                return QueryOutcome(
                    query=outcome.query,
                    expected_category=outcome.expected_category,
                    translation=outcome.translation,
                    category="path",
                    rows=outcome.rows,
                    narration=outcome.narration,
                    error=outcome.error,
                )
            return outcome

        report = self._run_with(mutate)
        kinds = {m.kind for m in report.mismatches}
        assert "taxonomy" in kinds
        # The corrupted baseline also diverges from the healthy other mode.
        assert "category" in kinds

    def test_mismatch_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Mismatch(
                domain="d", query="q", mode="m", kind="vibes", baseline=None, observed=None
            )


class TestCompiledSightings:
    """Compiled cells diff a first sighting, an admission and a plan hit."""

    def test_third_sighting_is_served_by_the_phrase_and_shape_plans(self, monkeypatch):
        from repro.validation import harness as harness_module

        translators, executors = [], []

        class RecordingTranslator(harness_module.QueryTranslator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                translators.append(self)

        class RecordingExecutor(harness_module.Executor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                executors.append(self)

        monkeypatch.setattr(harness_module, "QueryTranslator", RecordingTranslator)
        monkeypatch.setattr(harness_module, "Executor", RecordingExecutor)
        report = ValidationHarness(
            domains=[mini_domain()], modes=(BASELINE_MODE, Mode("oracle", "rows"))
        ).run()
        assert report.ok, report.render()
        compiled_translator, compiled_executor = translators[0], executors[0]
        # "scan" and "agg" translate: the third sighting of each is a
        # phrase-plan render (the compiled arm has no exact-text LRU).
        assert compiled_translator.stats()["exact_cache"] is None
        assert compiled_translator.stats()["plan_store"]["hits"] == 2
        # All three execute; each third sighting rebinds a shape plan.
        shape = compiled_executor.cache_stats["shape_plans"]
        assert shape["hits"] == 3 and shape["deferred"] == 3

    def test_a_later_sighting_diverging_is_reported_under_its_number(self):
        calls = {}

        def mutate(mode, domain, query, outcome):
            key = (mode, query.name)
            calls[key] = calls.get(key, 0) + 1
            if mode == BASELINE_MODE and query.name == "scan" and calls[key] == 3:
                return QueryOutcome(
                    query=outcome.query,
                    expected_category=outcome.expected_category,
                    translation=outcome.translation,
                    category=outcome.category,
                    rows="corrupted plan-hit rows",
                    narration=outcome.narration,
                    error=outcome.error,
                )
            return outcome

        report = ValidationHarness(
            domains=[mini_domain()], modes=(BASELINE_MODE,), mutate=mutate
        ).run()
        assert not report.ok
        assert [(m.mode, m.query, m.kind) for m in report.mismatches] == [
            ("compiled/rows#3", "scan", "rows")
        ]


class TestReportShape:
    def test_to_dict_is_json_serializable_and_complete(self):
        report = ValidationHarness(
            domains=[mini_domain()], modes=(BASELINE_MODE, Mode("oracle", "rows"))
        ).run()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert payload["baseline"] == "compiled/rows"
        assert payload["domains"][0]["domain"] == "mini"
        assert payload["domains"][0]["queries"] == 3
        assert payload["domains"][0]["mismatches"] == []

    def test_render_lists_mismatches(self):
        def mutate(mode, domain, query, outcome):
            if mode != BASELINE_MODE and query.name == "scan":
                return QueryOutcome(
                    query=outcome.query,
                    expected_category=outcome.expected_category,
                    translation="corrupted",
                )
            return outcome

        report = ValidationHarness(
            domains=[mini_domain()],
            modes=(BASELINE_MODE, Mode("oracle", "rows")),
            mutate=mutate,
        ).run()
        rendered = report.render()
        assert "FAIL" in rendered
        assert "mini/scan" in rendered


class TestCli:
    def _run(self, *args):
        env = dict(os.environ)
        env.pop("REPRO_ORACLE", None)
        return subprocess.run(
            [sys.executable, str(REPO / "tools" / "validate_corpus.py"), *args],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_demo_passes_with_exit_zero(self):
        result = self._run("--demo", "--no-narration")
        assert result.returncode == 0, result.stderr
        assert "PASS" in result.stdout

    def test_drill_fails_with_nonzero_exit(self):
        result = self._run("--demo", "--no-narration", "--drill")
        assert result.returncode == 1, result.stdout + result.stderr
        assert "MISMATCH" in result.stdout
        assert "[drill]" in result.stdout
