"""In-run budgets that record a miss instead of aborting the run.

A timing budget (say, fsync=batch writes within 2x of non-durable ones)
records its verdict in its own section: ``passes_budget``, and on a miss
the budget's message under ``budget_missed``.  ``run_benchmarks.py``
then still measures and writes every later section before it prints each
missed budget and exits 1; a bench module run on its own exits 1 on a
miss the same way.  Byte-equivalence checks are not budgets: they still
raise at once, since numbers measured on wrong answers mean nothing.
"""

from __future__ import annotations

from typing import Any, List


def record(section: dict, passes: bool, message: str) -> None:
    """Record a budget's verdict in ``section``, keeping ``message`` on a miss."""
    section["passes_budget"] = passes
    if not passes:
        section["budget_missed"] = message


def missed_budgets(node: Any) -> List[str]:
    """The messages of the budgets missed anywhere in ``node``, in order."""
    if isinstance(node, dict):
        found = []
        for key, value in node.items():
            if key == "budget_missed":
                found.append(value)
            else:
                found.extend(missed_budgets(value))
        return found
    if isinstance(node, list):
        return [message for item in node for message in missed_budgets(item)]
    return []


def exit_status(node: Any) -> int:
    """Print every budget missed in ``node``; 1 if any was, else 0."""
    missed = missed_budgets(node)
    for message in missed:
        print(f"::error::missed budget: {message}")
    return 1 if missed else 0
