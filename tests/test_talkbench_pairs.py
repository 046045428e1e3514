"""The verdict rule of ``tools/talkbench_pairs.py`` on canned result lines."""

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import talkbench_pairs as pairs  # noqa: E402
from talkbench.steady import spread  # noqa: E402

LATENCY = {"name": "verify_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
THROUGHPUT = {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25}


def result_line(correct=True, failed=0, **metrics):
    return json.dumps(
        {
            "correct": correct,
            "attempted": 100,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()},
        }
    )


def records(parent, change, name="verify_p50_ms"):
    """Parse one canned run per value, as the script does with run output."""
    return {
        side: [
            pairs.parse_result("summary line\n" + result_line(**{name: value}) + "\n")
            for value in values
        ]
        for side, values in (("parent", parent), ("change", change))
    }


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]


def only_verdict(spec, parent, change):
    (row,) = pairs.compare([spec], records(parent, change, spec["name"]))
    return row


def test_parse_result_takes_the_last_line_and_rejects_garbage():
    assert pairs.parse_result("a\n" + result_line(verify_p50_ms=1.0))["correct"] is True
    assert pairs.parse_result(result_line(correct=False, verify_p50_ms=1.0))["correct"] is False
    assert pairs.parse_result("") is None
    assert pairs.parse_result("Traceback (most recent call last):") is None
    assert pairs.parse_result('{"no": "metrics"}') is None


def test_a_clear_win_on_every_pair_is_better():
    row = only_verdict(LATENCY, PARENT, [value * 0.9 for value in PARENT])
    assert row["wins"] == 10 and row["verdict"] == "better"
    assert row["delta_pct"] == pytest.approx(-10.0, abs=0.5)


def test_higher_is_better_metrics_count_wins_upwards():
    row = only_verdict(THROUGHPUT, PARENT, [value * 1.1 for value in PARENT])
    assert row["wins"] == 10 and row["verdict"] == "better"
    row = only_verdict(THROUGHPUT, PARENT, [value * 0.9 for value in PARENT])
    assert row["wins"] == 0 and row["verdict"] == "within bound"


def test_eight_wins_in_ten_is_not_better():
    change = [value * 0.9 for value in PARENT[:8]] + [value * 1.1 for value in PARENT[8:]]
    row = only_verdict(LATENCY, PARENT, change)
    assert row["wins"] == 8 and row["verdict"] == "within bound"


def test_a_win_inside_the_parents_spread_is_not_better():
    # Every pair won, but by less than the parent's quartile spread.
    row = only_verdict(LATENCY, PARENT, [value - 0.005 for value in PARENT])
    assert row["wins"] == 10 and row["verdict"] == "within bound"


def test_worse_than_the_bound():
    row = only_verdict(LATENCY, PARENT, [value * 1.3 for value in PARENT])
    assert row["verdict"] == "worse than bound"
    row = only_verdict(LATENCY, PARENT, [value * 1.2 for value in PARENT])
    assert row["verdict"] == "within bound"
    row = only_verdict(THROUGHPUT, PARENT, [value * 0.7 for value in PARENT])
    assert row["verdict"] == "worse than bound"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.6, 1.4, 1.0, 1.0]
    row = only_verdict(LATENCY, noisy, [value * 0.5 for value in noisy])
    assert row["verdict"] == "unresolved"


def test_the_parent_spread_is_the_steadiness_reports():
    # Quartiles as talkbench/steady.py takes them: these runs spread 30%
    # there, beyond the 25% bound, although interpolating between the
    # inner order statistics instead would read 15%.
    parent = [0.6, 0.7, 0.9, 1.0, 1.0, 1.0, 1.0, 1.1, 1.3, 1.4]
    assert spread(parent) == pytest.approx(0.3)
    row = only_verdict(LATENCY, parent, [value * 0.5 for value in parent])
    assert row["parent"] == pytest.approx([0.85, 1.0, 1.15])
    assert row["verdict"] == "unresolved"


def test_metrics_missing_from_a_run_are_skipped_and_failures_are_shared():
    canned = records(PARENT, PARENT)
    assert pairs.compare([LATENCY, THROUGHPUT], canned)[0]["metric"] == "verify_p50_ms"
    assert len(pairs.compare([LATENCY, THROUGHPUT], canned)) == 1
    failing = [pairs.parse_result(result_line(failed=5, verify_p50_ms=1.0))] * 2
    assert pairs.failed_share(failing) == pytest.approx(0.05)
