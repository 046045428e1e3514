"""Resilience policies: deadlines, retries, circuit breaking, load shedding.

PR 4–6 made the service tier crash-*correct* — a dead worker fails its
in-flight requests with a typed error, respawn replays the mutation log,
results stay byte-identical to the single-process oracle.  This module
makes it crash-*graceful*: the policy objects that decide what a caller
experiences while the machinery underneath is failing.

The pieces compose but do not know about each other (and none of them
knows about the shard tier — the import direction is strictly
``sharding → service → resilience``):

:class:`Deadline`
    A monotonic-clock budget created once at the request edge and carried
    with the request through every layer — the admission check, the
    wait for the session's turn, the worker round-trip.  Layers consume
    ``remaining()``; nobody re-derives a timeout from a magic constant.

:class:`RetryPolicy`
    Exponential backoff with *seeded* jitter: given the same seed and
    salt, the delay schedule is identical in every process and every run,
    so a chaos test that replays a fault schedule replays the retry
    timing with it.  The policy only computes; the caller owns the loop
    (and the rule that **mutations are never auto-retried**).

:class:`CircuitBreaker`
    The classic closed → open → half-open machine, one per worker.  It
    counts only *infrastructure* failures (crashes, timeouts) — a SQL
    error is a healthy worker doing its job — and while open it lets the
    router degrade reads to the next live replica instead of queueing
    onto a corpse.

:class:`AdmissionController`
    Queue-depth and deadline-based shedding at the submission edge.  An
    overloaded service answers a typed :class:`ServiceOverloaded`
    *immediately* instead of a timeout after the damage is done; a
    request whose deadline already expired is shed for free before it
    waits for its turn.

Every policy default is chosen so that a healthy system behaves exactly
as it did before this module existed (no deadline → unbounded, breaker
closed, shedding off); the ``resilience`` benchmark section holds what
the defaults add to an admitted request under 1% of a fixed reference
request.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.sql.shape import stable_hash

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "CircuitOpen",
    "Deadline",
    "DeadlineExceeded",
    "RetryPolicy",
    "ServiceOverloaded",
]


class DeadlineExceeded(TimeoutError):
    """The request's deadline expired before a result was produced.

    Subclasses :class:`TimeoutError`, so callers that already handle
    timeouts keep working — but the message says *whose* budget ran out
    and where, which a bare ``TimeoutError`` never does.
    """


class ServiceOverloaded(RuntimeError):
    """The service shed this request at admission instead of queueing it.

    Raised by :class:`AdmissionController` when the requests waiting for
    the session's turn are at its shed threshold.  Typed so
    load-balancing callers can distinguish "back off and retry elsewhere"
    from a real failure — and so overload shows up as an immediate,
    explicit answer rather than a timeout.
    """


class CircuitOpen(RuntimeError):
    """Every candidate worker's circuit breaker is open (no probe due)."""


class Deadline:
    """A point on the monotonic clock by which a request must complete.

    ``Deadline.after(None)`` (or :data:`Deadline.NONE`) is the unbounded
    deadline: ``expired`` is always ``False`` and ``remaining()`` is
    ``None`` — which is exactly what ``asyncio.wait_for`` takes for
    "no timeout", so unbounded threads through untouched.
    """

    __slots__ = ("at", "_clock")

    NONE: "Deadline"  # assigned below

    def __init__(self, at: Optional[float], clock: Callable[[], float] = time.monotonic) -> None:
        self.at = at
        self._clock = clock

    @classmethod
    def after(
        cls, seconds: Optional[float], clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """The deadline ``seconds`` from now (``None`` → unbounded)."""
        if seconds is None:
            return cls.NONE
        return cls(clock() + seconds, clock)

    @property
    def expired(self) -> bool:
        return self.at is not None and self._clock() >= self.at

    def remaining(self) -> Optional[float]:
        """Seconds left (never negative), or ``None`` when unbounded."""
        if self.at is None:
            return None
        return max(0.0, self.at - self._clock())

    def bound(self, seconds: Optional[float]) -> Optional[float]:
        """``min(remaining, seconds)`` — one attempt's slice of the budget."""
        remaining = self.remaining()
        if remaining is None:
            return seconds
        if seconds is None:
            return remaining
        return min(remaining, seconds)

    def require(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is gone."""
        if self.expired:
            raise DeadlineExceeded(f"deadline expired before {what}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.at is None:
            return "Deadline(unbounded)"
        return f"Deadline(remaining={self.remaining():.3f}s)"


Deadline.NONE = Deadline(None)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic, seeded jitter.

    ``attempts`` is the *total* number of tries (1 = no retries).  The
    delay before retry ``n`` (n ≥ 1) is
    ``min(max_delay, base_delay * multiplier**(n-1))`` stretched by a
    jitter factor drawn from ``[1 - jitter, 1 + jitter]`` — but drawn
    from a :func:`~repro.sql.shape.stable_hash` of ``(seed, salt, n)``,
    not a shared RNG stream, so the schedule for a given request salt is
    a pure function: identical across processes, runs and interleavings.

    The policy is advice, not a loop: callers decide *what* is retryable.
    The service tier's rule is fixed — idempotent reads retry, mutations
    never do (a crashed worker may or may not have applied the write;
    replaying it is how data diverges).
    """

    attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def delay(self, attempt: int, salt: str = "") -> float:
        """Seconds to sleep before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if not self.jitter or not raw:
            return raw
        roll = random.Random(stable_hash(f"{self.seed}:{salt}:{attempt}")).random()
        return raw * (1.0 + self.jitter * (2.0 * roll - 1.0))

    def should_retry(self, attempt: int, deadline: Deadline) -> bool:
        """Whether a failed ``attempt`` (1-based) warrants another try."""
        return attempt < self.attempts and not deadline.expired


#: Breaker states (strings, so they read well in stats snapshots).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """A closed / open / half-open breaker guarding one worker.

    * **closed** — traffic flows; ``failure_threshold`` *consecutive*
      infrastructure failures trip it open.
    * **open** — :meth:`allow` answers ``False`` (the router degrades
      reads elsewhere) until ``reset_timeout`` has elapsed.
    * **half-open** — up to ``probes`` requests are let through; one
      success closes the breaker, one failure re-opens it and restarts
      the timer.

    Single-threaded by design: the router only touches breakers from the
    event loop.  ``clock`` is injectable so tests can step time instead
    of sleeping.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 5.0,
        probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if probes < 1:
            raise ValueError("probes must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.probes = probes
        self._clock = clock
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._inflight_probes = 0
        self.trips = 0

    @property
    def state(self) -> str:
        """The current state, advancing open → half-open when the timer lapses."""
        if self._state == OPEN and self._clock() - self._opened_at >= self.reset_timeout:
            self._state = HALF_OPEN
            self._inflight_probes = 0
        return self._state

    def allow(self) -> bool:
        """Whether one more request may be sent through this breaker."""
        state = self.state
        if state == CLOSED:
            return True
        if state == HALF_OPEN and self._inflight_probes < self.probes:
            self._inflight_probes += 1
            return True
        return False

    def record_success(self) -> None:
        """A request completed (or failed for *application* reasons)."""
        if self._state == HALF_OPEN:
            self._state = CLOSED
        self._consecutive_failures = 0
        self._inflight_probes = 0

    def record_failure(self) -> None:
        """An *infrastructure* failure (crash, timeout) on this worker."""
        self._consecutive_failures += 1
        if self._state == HALF_OPEN or (
            self._state == CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._trip()

    def force_open(self) -> None:
        """Trip immediately (the router saw the worker die out-of-band)."""
        if self._state != OPEN:
            self._trip()

    def reset(self) -> None:
        """Back to pristine closed (a fresh worker incarnation came up)."""
        self._state = CLOSED
        self._consecutive_failures = 0
        self._inflight_probes = 0

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._inflight_probes = 0
        self.trips += 1

    def stats(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "trips": self.trips,
            "consecutive_failures": self._consecutive_failures,
        }


class AdmissionController:
    """Shed work at the submission edge instead of timing out later.

    Two independent rules, both off unless configured:

    * ``max_depth`` — when this many requests already wait for the
      session's turn, a new one is answered :class:`ServiceOverloaded`
      at once (instead of joining a line it would only time out in).
      ``None`` lets every request wait its turn.
    * deadline shedding — a request whose :class:`Deadline` has already
      expired is answered :class:`DeadlineExceeded` before it waits for
      its turn.  The session applies the same rule when the turn comes,
      to a request that expired *while it waited* (counted separately as
      ``shed_in_queue``).

    Counters are plain ints mutated under the session's stats lock (or
    the event loop); they feed the ``shed`` block of ``stats()``.
    """

    def __init__(self, max_depth: Optional[int] = None) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 (or None to disable)")
        self.max_depth = max_depth
        self.shed_overload = 0
        self.shed_deadline = 0
        self.shed_in_queue = 0

    def admit(self, depth: int, deadline: Deadline = Deadline.NONE) -> None:
        """Raise the typed shed error, or return to admit the request."""
        if deadline.at is None and self.max_depth is None:
            return  # the defaults: nothing can shed this request
        if deadline.expired:
            self.shed_deadline += 1
            raise DeadlineExceeded("deadline expired before the request was queued")
        if self.max_depth is not None and depth >= self.max_depth:
            self.shed_overload += 1
            raise ServiceOverloaded(
                f"service queue is at its shed threshold ({self.max_depth});"
                " back off and retry"
            )

    def shed_expired_in_queue(self) -> DeadlineExceeded:
        """Count and build the error for a request that expired while queued."""
        self.shed_in_queue += 1
        return DeadlineExceeded("deadline expired while the request was queued")

    def stats(self) -> Dict[str, int]:
        return {
            "overload": self.shed_overload,
            "deadline": self.shed_deadline,
            "in_queue": self.shed_in_queue,
        }
