"""Deterministic fault injection for the service and shard tier.

Chaos testing is only useful when a failing run can be *replayed*: the
whole point of the shard tier's oracle discipline is byte-equivalence
under any request history, and a fault schedule that depends on wall
clock or OS scheduling can never be reproduced in CI.  Following the
simulation-first argument of the related work (PAPERS.md), every fault
this module injects is a **pure function of (seed, scope, event kind,
event index)** — no shared RNG stream whose draw order would depend on
async interleaving, no clocks.  Same seed → same schedule, in every
process, every run, every platform (the derivation goes through
:func:`repro.sql.shape.stable_hash`, the same process-stable digest the
hash ring uses).

Enabling
--------

Set ``REPRO_FAULTS`` to a comma-separated spec, e.g.::

    REPRO_FAULTS="seed=42,crash_nth=25,corrupt=0.02,drop=0.01,stall=0.2,stall_s=0.05"

========== =========================================================
key        meaning (defaults in parentheses)
========== =========================================================
seed       schedule seed (0)
crash_nth  the worker process dies at exactly its Nth ordinary
           request, once per incarnation (off)
crash_every the worker dies at every Nth ordinary request (off)
drop       probability a response frame is silently dropped (0)
corrupt    probability a response frame is sent undecodable (0)
delay      probability a response frame is delayed (0)
delay_s    the delay applied when it is (0.05)
stall      probability a request stalls before running (0) — the
           slow-replica fault
stall_s    the stall applied when it is (0.1)
wal_crash_nth the process dies right after its Nth WAL append — the
           crash-between-append-and-ack window (off)
fsync_stall probability a WAL fsync stalls before running (0)
fsync_stall_s the stall applied when it does (0.02)
========== =========================================================

Faults apply only to *ordinary* requests (translate / execute-read /
explain / narrate): mutation barrier frames, control frames
(stats/checkpoint/ping/shutdown) and the ready hello are exempt, so a
fault schedule can never make replicas diverge (a worker that crashes
*around* a mutation is converged by the router's log replay — that path
is chaos-tested too, via ``crash_nth`` landing between mutations) and a
respawned worker can always be rebuilt.

Where the hooks live
--------------------

* :meth:`FaultInjector.crash_due` — checked in the worker's read loop;
  a due crash is ``os._exit`` (indistinguishable from SIGKILL).
* :meth:`FaultInjector.stall_for` — awaited by the worker before
  running the request (the slow replica).
* :meth:`FaultInjector.response_fate` — consulted by the worker before
  sending an ordinary response frame: ``deliver``/``delay`` /``drop``
  (the router's per-attempt timeout fires and the read retries) /
  ``corrupt`` (the router's frame reader desyncs and treats the worker
  as dead — exercising the crash path without a crash).
* :meth:`FaultInjector.wal_crash_due` / :meth:`FaultInjector.fsync_stall_for`
  — duck-typed by :class:`~repro.storage.wal.WriteAheadLog` (pass the
  injector via :class:`~repro.storage.durability.DurabilityConfig`): a
  due WAL crash is ``os._exit`` right after the append, before any ack;
  a due fsync stall sleeps before syncing.
* :func:`tear_wal_tail` / :func:`corrupt_wal_record` — *offline* file
  mutilators for recovery drills: deterministically truncate a log
  mid-final-record (the torn write) or flip a byte inside record ``k``
  (mid-log corruption, which recovery must refuse typed).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from random import Random
from typing import Any, Dict, List, Optional, Tuple

from repro.sql.shape import stable_hash

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "corrupt_frame",
    "corrupt_wal_record",
    "parse_faults",
    "tear_wal_tail",
]

#: The environment variable that arms fault injection.
ENV_VAR = "REPRO_FAULTS"

DELIVER = "deliver"
DELAY = "delay"
DROP = "drop"
CORRUPT = "corrupt"

_FLOAT_KEYS = {
    "drop",
    "corrupt",
    "delay",
    "delay_s",
    "stall",
    "stall_s",
    "fsync_stall",
    "fsync_stall_s",
}
_INT_KEYS = {"seed", "crash_nth", "crash_every", "wal_crash_nth"}


@dataclass(frozen=True)
class FaultPlan:
    """A parsed ``REPRO_FAULTS`` spec (all faults off by default).

    The disk fates (``wal_crash_nth``, ``fsync_stall``/``fsync_stall_s``)
    drive the durability drills: the first kills the process between a
    WAL append and its acknowledgement (the canonical torn-tail /
    lost-ack window), the second makes chosen fsyncs take visibly long
    (the storage stall).  Both are decided by the same pure
    (seed, scope, event, index) derivation as every other fault, so a
    recovery drill replays identically from its seed.
    """

    seed: int = 0
    crash_nth: Optional[int] = None
    crash_every: Optional[int] = None
    drop: float = 0.0
    corrupt: float = 0.0
    delay: float = 0.0
    delay_s: float = 0.05
    stall: float = 0.0
    stall_s: float = 0.1
    wal_crash_nth: Optional[int] = None
    fsync_stall: float = 0.0
    fsync_stall_s: float = 0.02

    @property
    def active(self) -> bool:
        return bool(
            self.crash_nth
            or self.crash_every
            or self.drop
            or self.corrupt
            or self.delay
            or self.stall
            or self.wal_crash_nth
            or self.fsync_stall
        )


def parse_faults(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`."""
    values: Dict[str, Any] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"fault spec item {item!r} is not key=value")
        if key in _INT_KEYS:
            values[key] = int(raw)
        elif key in _FLOAT_KEYS:
            value = float(raw)
            if key in ("drop", "corrupt", "delay", "stall") and not 0.0 <= value <= 1.0:
                raise ValueError(f"fault rate {key} must be within [0, 1]")
            values[key] = value
        else:
            raise ValueError(f"unknown fault spec key {key!r}")
    return FaultPlan(**values)


def corrupt_frame(frame: bytes) -> bytes:
    """An undecodable variant of a wire frame (same length, bad codec).

    The length prefix is left intact so the receiving
    :class:`~repro.service.sharding.protocol.FrameReader` consumes the
    whole frame and fails in ``_decode`` — the stream is then desynced
    in a *detected* way, driving the supervisor's worker-death path.
    """
    return bytes([0xFF]) + frame[1:]


class FaultInjector:
    """Deterministic fault decisions for one scope (one worker process).

    Every decision is derived from
    ``stable_hash(f"{seed}:{scope}:{event}:{index}")`` — never from a
    stream — so concurrent events cannot perturb each other's outcomes
    and the full schedule can be precomputed (:meth:`schedule`) and
    asserted identical across processes.
    """

    def __init__(self, plan: FaultPlan, scope: str) -> None:
        self.plan = plan
        self.scope = scope

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_env(cls, scope: str, environ=os.environ) -> Optional["FaultInjector"]:
        """The injector armed by ``REPRO_FAULTS``, or ``None`` when quiet."""
        spec = environ.get(ENV_VAR, "").strip()
        if not spec:
            return None
        plan = parse_faults(spec)
        return cls(plan, scope) if plan.active else None

    # ------------------------------------------------------------------
    # Decisions (pure functions of (seed, scope, event, index))
    # ------------------------------------------------------------------

    def _roll(self, event: str, index: int) -> float:
        key = f"{self.plan.seed}:{self.scope}:{event}:{index}"
        return Random(stable_hash(key)).random()

    def crash_due(self, index: int) -> bool:
        """Whether this incarnation dies at ordinary request ``index``."""
        if self.plan.crash_nth is not None and index == self.plan.crash_nth:
            return True
        every = self.plan.crash_every
        return bool(every) and index % every == 0

    def crash(self) -> None:  # pragma: no cover - the exit kills coverage
        """Die like SIGKILL would: no cleanup, no exception, exit 139."""
        os._exit(139)

    def stall_for(self, index: int) -> float:
        """Seconds this request stalls before running (0.0 = no stall)."""
        if self.plan.stall and self._roll("stall", index) < self.plan.stall:
            return self.plan.stall_s
        return 0.0

    def response_fate(self, index: int) -> Tuple[str, float]:
        """``(fate, delay_seconds)`` for ordinary response frame ``index``."""
        plan = self.plan
        if not (plan.drop or plan.corrupt or plan.delay):
            return (DELIVER, 0.0)
        roll = self._roll("frame", index)
        if roll < plan.drop:
            return (DROP, 0.0)
        if roll < plan.drop + plan.corrupt:
            return (CORRUPT, 0.0)
        if roll < plan.drop + plan.corrupt + plan.delay:
            return (DELAY, plan.delay_s)
        return (DELIVER, 0.0)

    # ------------------------------------------------------------------
    # Disk fates (consulted by repro.storage.wal via duck typing)
    # ------------------------------------------------------------------

    def wal_crash_due(self, index: int) -> bool:
        """Whether the process dies right after WAL append ``index``.

        The crash lands *between* the append (already flushed to the OS)
        and the caller's acknowledgement — the canonical lost-ack window:
        the write is on disk but no client was ever told, and recovery
        must surface it anyway.
        """
        nth = self.plan.wal_crash_nth
        return nth is not None and index == nth

    def fsync_stall_for(self, index: int) -> float:
        """Seconds fsync number ``index`` stalls before running (0 = none)."""
        plan = self.plan
        if plan.fsync_stall and self._roll("fsync", index) < plan.fsync_stall:
            return plan.fsync_stall_s
        return 0.0

    def torn_tail_keep(self, size: int) -> int:
        """How many bytes of a ``size``-byte final record a torn write kept.

        Used by :func:`tear_wal_tail` to truncate a log mid-record the
        way a crash mid-``write`` would; the cut point is a pure function
        of (seed, scope), so the same drill tears the same byte.
        """
        if size <= 1:
            return 0
        return stable_hash(f"{self.plan.seed}:{self.scope}:torn") % size

    # ------------------------------------------------------------------
    # Introspection (tests assert cross-process schedule identity)
    # ------------------------------------------------------------------

    def schedule(self, count: int) -> List[Dict[str, Any]]:
        """The first ``count`` ordinary-request decisions, precomputed."""
        return [
            {
                "index": index,
                "crash": self.crash_due(index),
                "stall": self.stall_for(index),
                "fate": self.response_fate(index),
            }
            for index in range(1, count + 1)
        ]


# ---------------------------------------------------------------------------
# Offline WAL mutilators (recovery drills operate on closed log files)
# ---------------------------------------------------------------------------


def tear_wal_tail(path, seed: int = 0, scope: str = "tear") -> int:
    """Truncate a closed WAL mid-final-record, like a crash mid-``write``.

    The cut point inside the last record is chosen by
    :meth:`FaultInjector.torn_tail_keep` — a pure function of
    ``(seed, scope)`` — so the same drill always tears the same byte.
    Returns how many bytes of the final record survive (0 means even its
    header is gone).  Raises :class:`ValueError` on an empty log: there
    is no record to tear.
    """
    from repro.storage.wal import scan_wal

    scan = scan_wal(path, strict=True)
    if not scan.records:
        raise ValueError(f"{path} holds no records to tear")
    last = scan.records[-1]
    keep = FaultInjector(FaultPlan(seed=seed), scope).torn_tail_keep(last.length)
    with open(path, "r+b") as handle:
        handle.truncate(last.offset + keep)
    return keep


def corrupt_wal_record(path, k: int) -> int:
    """Flip one payload byte of record ``k`` (0-based) in a closed WAL.

    When ``k`` is not the final record this manufactures *mid-log*
    corruption — damage followed by intact data — which recovery must
    refuse with a typed :class:`~repro.errors.WalCorruptionError` rather
    than truncate through.  On the final record it manufactures the
    garbled-in-place torn tail instead.  Returns the absolute file
    offset of the flipped byte.
    """
    from repro.storage.wal import _RECORD_HEADER, scan_wal

    scan = scan_wal(path, strict=True)
    if not 0 <= k < len(scan.records):
        raise ValueError(
            f"{path} has {len(scan.records)} records; cannot corrupt record {k}"
        )
    record = scan.records[k]
    target = record.offset + _RECORD_HEADER.size  # first payload byte
    with open(path, "r+b") as handle:
        handle.seek(target)
        original = handle.read(1)
        handle.seek(target)
        handle.write(bytes([original[0] ^ 0xFF]))
    return target
