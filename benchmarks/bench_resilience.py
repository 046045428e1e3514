"""Resilience-layer overhead benchmark: the policies must be ~free at rest.

PR 7 threads a :class:`~repro.service.resilience.Deadline` and an
:class:`~repro.service.resilience.AdmissionController` through every
service request, and a retry/breaker/degradation loop through every
shard-tier read.  The contract is that a *healthy* system pays almost
nothing for this: every default is "off" (unbounded deadline, no depth
threshold, closed breakers), so the hooks reduce to a singleton fetch
and a couple of integer comparisons.

This benchmark quantifies that claim three ways:

* ``micro_ns`` — the isolated per-call cost of each policy primitive;
* ``queued_execute`` — warm single-shape executes, one at a time, on a
  session no other request is using, default versus stubbed admission.
  Such a session's turn is free, so each execute takes it without
  yielding and runs on the event loop: admission, deadline and the
  shape-plan run, with no pool call.  This is the cheapest request that runs the
  admission check, so it is the strictest base for the budget (both
  sides build the same deadline).  The key keeps its name so that
  runs before and after the inline path compare; before it, this
  section timed the turn and one pool call, about 150 µs a request;
* ``fast_path`` — warm translates (exact-text LRU hits) through a
  default session versus one whose admission check is stubbed out.
  Like every request, each takes the session's turn and reaches
  admission, then runs on the event loop.  The key keeps its name so
  that runs before and after compare; before, a cached translate
  skipped the turn and admission while the turn was free, so both
  sessions ran the same code.

The acceptance budget is what the defaults add to an admitted request:
one ``Deadline.after(None)`` and one ``admit()`` call
(``micro_ns.deadline_after_none + micro_ns.admission_admit``) must stay
under 1% of a fixed reference request (:func:`_reference_request`, a
pure-Python loop that took about as long as the inline execute, near
15 µs, when this base was chosen).  ``admit`` returns at once when the
deadline is unbounded and no depth threshold is set.  The base is fixed
because the execute's time is the engine's: an engine speedup alone
would push a budget over the execute toward its threshold, with no
resilience change.  The two calls and the reference are timed in the
same rounds as the execute batches, and the budget is the median of the
per-round ratios, so a change of host speed during the run moves both
terms of a ratio together.  The two timed
comparisons are kept as information only.  Timing cannot resolve the
stub on either path: it removes a few tens of nanoseconds of a cached
translate near 3 µs and of an inline execute near 16 µs, inside the
spread between runs.  Their batches are
interleaved (default / bypassed / default / bypassed ...) so clock drift
and thermal state cancel instead of biasing one side.
"""

from __future__ import annotations

import asyncio
import statistics
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.datasets import movie_database  # noqa: E402
from repro.service import NarrationService  # noqa: E402
from repro.service.resilience import (  # noqa: E402
    AdmissionController,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
)

__all__ = ["bench_resilience"]

_SQL = "select m.title from MOVIES m where m.year = 2004"

#: Loop length of the reference request: about 15 µs on a 2-vCPU Xeon,
#: what an inline execute of ``_SQL`` took when the base was chosen.
_REFERENCE_ITERATIONS = 500


def _reference_request() -> int:
    """The budget's base: fixed work that no change to the program moves."""
    total = 0
    for i in range(_REFERENCE_ITERATIONS):
        total += i * i
    return total


class _BypassAdmission(AdmissionController):
    """Admission with the shed checks compiled out (the old edge)."""

    def admit(self, depth, deadline=Deadline.NONE):  # noqa: D102
        return None


def _bypass_admission(session) -> None:
    """Stub the session's admission check; deadlines are built as usual."""
    session._admission = _BypassAdmission()


async def _measure_path(session, kind: str, batches: int, calls: int):
    """Per-call latencies (seconds) over ``batches`` timed batches."""
    request = session.translate if kind == "translate" else session.execute
    for _ in range(5):  # warm the caches
        await request(_SQL)
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            await request(_SQL)
        samples.append((time.perf_counter() - start) / calls)
    return samples


async def _compare(kind: str, batches: int, calls: int, between=None):
    """Interleaved default-vs-bypassed rounds for one request path.

    Each round is ``(default, bypassed, between())``: one batch's per-call
    latency on each session, and what ``between`` (if given) returns when
    called after them in the same round.
    """
    default_service = NarrationService()
    bypassed_service = NarrationService()
    try:
        default_session = default_service.session(database=movie_database())
        bypassed_session = bypassed_service.session(database=movie_database())
        _bypass_admission(bypassed_session)
        rounds = []
        for _ in range(batches):
            default = (await _measure_path(default_session, kind, 1, calls))[0]
            bypassed = (await _measure_path(bypassed_session, kind, 1, calls))[0]
            rounds.append((default, bypassed, between() if between else None))
        return rounds
    finally:
        await default_service.aclose()
        await bypassed_service.aclose()


def _micro(fn, iterations: int) -> float:
    """Per-call cost in nanoseconds (median of 5 timed rounds)."""
    rounds = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        rounds.append((time.perf_counter() - start) / iterations)
    return statistics.median(rounds) * 1e9


def _regression_pct(default_s: float, bypassed_s: float) -> float:
    return round((default_s - bypassed_s) / max(bypassed_s, 1e-12) * 100.0, 2)


def _medians(rows):
    """The median of each column of ``rows``."""
    return tuple(statistics.median(column) for column in zip(*rows))


def bench_resilience(quick: bool = False) -> dict:
    batches = 10 if quick else 20
    calls = 100 if quick else 200
    iterations = 20_000 if quick else 100_000

    fast = asyncio.run(_compare("translate", batches, calls))
    fast_default, fast_bypassed = _medians(timings[:2] for timings in fast)
    admission = AdmissionController()

    def per_request_ns():
        # The budget's terms and its base, timed in the round of the
        # execute batches.
        return (
            _micro(lambda: Deadline.after(None), iterations // batches),
            _micro(lambda: admission.admit(0), iterations // batches),
            _micro(_reference_request, calls),
        )

    rounds = asyncio.run(_compare("execute", batches, calls, per_request_ns))
    queued_default, queued_bypassed = _medians(timings[:2] for timings in rounds)
    deadline_ns, admit_ns, reference_ns = _medians(terms for _, _, terms in rounds)
    budget_pct = statistics.median(
        (deadline + admit) / reference * 100.0
        for _, _, (deadline, admit, reference) in rounds
    )

    breaker = CircuitBreaker()
    policy = RetryPolicy()
    deadline = Deadline.after(60.0)
    micro = {
        "deadline_after_none": deadline_ns,
        "deadline_after_60s": _micro(lambda: Deadline.after(60.0), iterations),
        "deadline_remaining": _micro(deadline.remaining, iterations),
        "admission_admit": admit_ns,
        "breaker_allow": _micro(breaker.allow, iterations),
        "retry_delay": _micro(lambda: policy.delay(2, "execute:42"), iterations // 10),
    }

    result = {
        "note": (
            "default resilience (unbounded deadline, no shed threshold,"
            " closed breakers) vs the same session with its admission check"
            " stubbed out; interleaved medians, per-call; queued_execute"
            " times an idle session's execute, which runs inline on the"
            " event loop"
        ),
        "fast_path": {
            "p50_default_us": round(fast_default * 1e6, 3),
            "p50_bypassed_us": round(fast_bypassed * 1e6, 3),
            "regression_pct": _regression_pct(fast_default, fast_bypassed),
        },
        "queued_execute": {
            "p50_default_us": round(queued_default * 1e6, 3),
            "p50_bypassed_us": round(queued_bypassed * 1e6, 3),
            "regression_pct": _regression_pct(queued_default, queued_bypassed),
        },
        "micro_ns": {key: round(value, 1) for key, value in micro.items()},
        "reference_request_us": round(reference_ns / 1e3, 3),
        "budget": (
            "micro_ns.deadline_after_none + micro_ns.admission_admit"
            " < 1% of reference_request_us, as the median of the"
            " per-round ratios"
        ),
        "budget_pct": round(budget_pct, 3),
        "passes_budget": budget_pct < 1.0,
    }
    return result


if __name__ == "__main__":
    import json

    print(json.dumps(bench_resilience(quick="--quick" in sys.argv), indent=2))
