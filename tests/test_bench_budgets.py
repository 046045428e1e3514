"""The in-run budget helpers of ``benchmarks/budgets.py``."""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))

from budgets import exit_status, missed_budgets, record  # noqa: E402


def test_record_keeps_the_message_only_on_a_miss():
    met, missed = {}, {}
    record(met, True, "never shown")
    record(missed, False, "fsync=batch is 2.30x")
    assert met == {"passes_budget": True}
    assert missed == {"passes_budget": False, "budget_missed": "fsync=batch is 2.30x"}


def test_every_missed_budget_is_collected_in_order():
    summary = {"service_throughput": {}, "databases": {"50": {}, "200": {}}, "storage": {"columnar": {}}}
    record(summary["service_throughput"], False, "service 4.1x")
    record(summary["databases"]["50"], True, "unseen")
    record(summary["databases"]["200"], False, "Q6 is 6.0x Q4")
    record(summary["storage"]["columnar"], False, "columnar 2.9x")
    # The resilience section records a verdict but no message: information only.
    summary["resilience"] = {"passes_budget": False}
    assert missed_budgets(summary) == ["service 4.1x", "Q6 is 6.0x Q4", "columnar 2.9x"]
    assert missed_budgets([summary["storage"], {}]) == ["columnar 2.9x"]


def test_exit_status_prints_each_miss(capsys):
    assert exit_status({"a": {"passes_budget": True}}) == 0
    section = {}
    record(section, False, "shard 2.5x")
    assert exit_status([{"shard": section}]) == 1
    assert "shard 2.5x" in capsys.readouterr().out
