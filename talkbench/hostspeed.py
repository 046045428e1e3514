"""Host-speed probe: fixed pure-Python work, timed in the benchmark's own process.

On a shared host the CPU's speed switches between two regimes about
1.7x apart every few milliseconds to tenths of a second, and the share
of time spent in the slow one drifts over minutes.  Every timing of the program moves
with it, CPU time included.  Each run therefore times this probe in
short bursts around each set-up and between the short slices of its
timed phase, in the same process, and scales every timing by the probe
next to it: each latency sample, and each slice's wall and CPU time, is
multiplied by ``REFERENCE_S`` over the median repetition of the bursts
just before and just after its slice (:meth:`Probe.slice_scales`).  The
unscaled figures and the probe's median and mean are printed on the
run's summary line.

Why per slice and one for one.  In eight verify_warm runs with a
repetition every eight requests, the requests that ran between two
slow-regime repetitions took 1.61-1.72 times as long as the same
requests between two fast ones, and the probe itself took 1.60-1.72
times as long: the program and the probe move together.  One factor
per run cannot follow a run that mixes the regimes: its p99 comes from
its slow stretches as soon as a tenth of it is slow, while the probe's
median reads the fast regime until half of it is, and scaled that way
such runs read p99 up to 1.3 times too high.

The probe is a fixed mix of interpreter work like the program's own
(lexing with ``shlex`` and ``tokenize``, ``textwrap``, ``difflib``, dict
lookups and method calls), all from the standard library.  It calls no
code of the program under test and pauses the cyclic garbage collector,
so no change to the program can move it: a program that gets 10% slower
still reads 10% slower.  A repetition is timed on the thread's CPU
clock, which leaves out the hypervisor's steal, like the program's own
latencies (see :mod:`talkbench.workloads`).
"""

from __future__ import annotations

import difflib
import gc
import io
import shlex
import statistics
import textwrap
import time
import tokenize
from typing import List

_now = time.perf_counter
_cpu = time.thread_time

#: Dict-loop iterations of one repetition.
LOOPS = 1000
#: Repetitions per burst between slices of a timed phase.
REPS = 2
#: Repetitions per burst right before and right after a set-up.
SETUP_REPS = 10
#: CPU seconds of one repetition at the reference speed: the median of
#: this probe on a 2-vCPU x86-64 host (Intel Xeon, CPython 3.11) in its
#: usual (slow) regime.
REFERENCE_S = 0.0012

_KEYS = tuple(f"key{i}" for i in range(64))
_SQL = (
    "select m.title, a.name from MOVIES m, CAST c, ACTOR a where m.id = c.mid"
    " and c.aid = a.id and a.name = 'Brad Pitt' and m.year > 1990 order by m.year"
)
_SOURCE = "def f(a, b=2):\n    return [x * b for x in range(a) if x % 3]\n"
_TEXT = "The query finds the titles of the movies in which Brad Pitt plays, by year. " * 2


class _Counter:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, amount: int) -> None:
        self.total += amount


def _work(table: dict, counter: _Counter) -> int:
    """About 1 ms of lexing, wrapping, matching and dict work."""
    for _ in range(2):
        counter.add(len(shlex.split(_SQL)))
        counter.add(sum(1 for _ in tokenize.generate_tokens(io.StringIO(_SOURCE).readline)))
        counter.add(len(textwrap.wrap(_TEXT, 40)))
    counter.add(int(100 * difflib.SequenceMatcher(None, _SQL[:48], _SQL[:48].upper()).ratio()))
    keys = _KEYS
    for i in range(LOOPS):
        key = keys[i & 63]
        table[key] = table.get(key, 0) + i
        counter.add(len(key))
    return counter.total


class Probe:
    """Bursts of probe repetitions and the CPU time each took."""

    def __init__(self) -> None:
        self.bursts: List[List[float]] = []
        #: Wall seconds spent probing, to leave out of timings.
        self.wall_s = 0.0
        self._table = dict.fromkeys(_KEYS, 0)
        self._counter = _Counter()

    def burst(self, reps: int = REPS) -> None:
        enabled = gc.isenabled()
        gc.disable()
        started = _now()
        samples = []
        try:
            for _ in range(reps):
                begin = _cpu()
                _work(self._table, self._counter)
                samples.append(_cpu() - begin)
        finally:
            if enabled:
                gc.enable()
            self.bursts.append(samples)
            self.wall_s += _now() - started

    @property
    def samples(self) -> List[float]:
        return [sample for burst in self.bursts for sample in burst]

    def rep_s(self) -> float:
        """Median CPU seconds of one repetition over every burst so far."""
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that turns a time measured between the bursts into reference-speed time."""
        return REFERENCE_S / self.rep_s()

    def slice_scales(self) -> List[float]:
        """One factor per stretch between consecutive bursts, from those two bursts."""
        return [
            REFERENCE_S / statistics.median(before + after)
            for before, after in zip(self.bursts, self.bursts[1:])
        ]
