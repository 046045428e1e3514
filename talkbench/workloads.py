"""One run: set up the program, drive it with closed-loop clients, account.

The program under test is reached only through its public API: one
``NarrationService`` session per domain, or a ``ShardRouter`` whose
workers build their replicas from :mod:`talkbench.factories`.  Each
client sends its next request only when the previous reply has arrived;
a request that raises counts as failed and adds no latency sample.

A request's latency runs from the client's call to the reply, read on
the program's CPU clocks (:class:`ProgramClock`) rather than the wall
clock.  Every program process runs on one CPU, so over a request the
wall clock advances by the CPU time all of them use, plus the stretches
when the hypervisor runs another guest on that CPU (steal), plus any
wait with nothing runnable (an fsync, in data_entry's writes).  Steal
comes in gaps of a few milliseconds that land on a few requests in a
thousand, and sets a run's p99 whenever it rises; the kernel's
paravirtual accounting leaves it out of CPU clocks.  Wall latencies are
kept beside them (``Phase.wall_latencies``).
"""

from __future__ import annotations

import asyncio
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.datasets.domains import DOMAIN_NAMES
from repro.datasets.generator import bench_movie_database
from repro.engine.result import QueryResult
from repro.service.service import NarrationService
from repro.service.sharding.router import ShardRouter
from repro.storage.database import Database
from repro.storage.durability import DurabilityConfig

from talkbench import factories, hostspeed, oracle, trace
from talkbench.streams import KINDS, VERIFY, WRITE, Request, Stream

_now = time.perf_counter

#: Slices of a timed phase.  A host-speed probe burst runs before the
#: first and after each one, outside the timed windows, and every timing
#: of a slice is scaled by the two bursts around it; the phase that
#: measures tracing overhead alternates untraced and traced slices.
#: Slices are short (about 80 ms) so that few of them span a change of
#: the host's speed (see talkbench.hostspeed).
SEGMENTS = 128


def databases(workload: str) -> Dict[str, Database]:
    """Freshly generated databases of one workload, by domain name."""
    if workload in ("verify_warm", "verify_sharded"):
        return {"movies": factories.domain_database("movies")}
    if workload == "verify_cold":
        return {name: factories.domain_database(name) for name in DOMAIN_NAMES}
    if workload == "data_entry":
        return {"movies": bench_movie_database()}
    raise ValueError(f"unknown workload {workload!r}")


class Deployment:
    """The program under test for one run: sessions, or a shard router."""

    def __init__(self, workload: str, workdir: str, trace_dir: Optional[str] = None) -> None:
        self.workload = workload
        self.workdir = workdir
        #: Where traced shard workers write their spans (None: untraced).
        self.trace_dir = trace_dir
        self.service: Optional[NarrationService] = None
        self.router: Optional[ShardRouter] = None
        self.sessions: Dict[str, Any] = {}
        self.databases: Dict[str, Database] = {}
        self.durability_dir: Optional[str] = None

    async def start(self) -> None:
        if self.workload == "verify_sharded":
            # Workers are spawned with this environment; the variable
            # makes them install the tracer (see talkbench.factories).
            if self.trace_dir is not None:
                os.environ[factories.TRACE_DIR_VAR] = self.trace_dir
            try:
                self.router = ShardRouter(
                    "talkbench.factories:movies_database",
                    spec_factory="talkbench.factories:movies_spec",
                    workers=2,
                )
                await self.router.start()
            finally:
                os.environ.pop(factories.TRACE_DIR_VAR, None)
            return
        self.service = NarrationService()
        self.databases = databases(self.workload)
        for name, database in self.databases.items():
            durability = None
            if self.workload == "data_entry":
                self.durability_dir = os.path.join(
                    self.workdir, f"durable-{os.getpid()}-{id(self)}"
                )
                shutil.rmtree(self.durability_dir, ignore_errors=True)
                durability = DurabilityConfig(directory=self.durability_dir)
            self.sessions[name] = self.service.session(
                database=database,
                spec=factories.domain_spec(name, database.schema),
                durability=durability,
            )
        if self.workload == "data_entry":
            # The baseline snapshot is written on attach; a durable
            # session may hand back a different (recovered) database.
            self.databases = {
                name: session.database for name, session in self.sessions.items()
            }

    async def set_tracing(self, on: bool) -> None:
        """Start or stop recording spans, in this process and in shard workers.

        A traced worker reads the switch file at each stats request and
        applies it from the next request it serves.
        """
        if not on:
            trace.TRACER.recording = False
        if self.router is not None and self.trace_dir is not None:
            switch = os.path.join(self.trace_dir, factories.SWITCH_FILE)
            if on:
                open(switch, "w").close()
            elif os.path.exists(switch):
                os.remove(switch)
            await self.router.stats()
        if on:
            trace.TRACER.recording = True

    def target(self, domain: str) -> Any:
        return self.router if self.router is not None else self.sessions[domain]

    async def stats(self) -> Dict[str, Any]:
        """Session statistics (the shard workers' sessions for the router).

        ``sessions`` lists one ``NarrationSession.stats()`` per session,
        ``router`` holds the router's own counters and ``pids`` the
        worker processes (both empty in-process).
        """
        if self.router is None:
            return {
                "sessions": [session.stats() for session in self.sessions.values()],
                "router": {},
                "pids": [],
            }
        fleet = await self.router.stats()
        return {
            "sessions": [worker["session"] for worker in fleet["workers"]],
            "router": fleet["router"],
            "pids": [worker["pid"] for worker in fleet["workers"]],
        }

    async def close(self) -> None:
        if self.router is not None:
            await self.router.aclose()
        if self.service is not None:
            await self.service.aclose()

    def discard(self) -> None:
        if self.durability_dir is not None:
            shutil.rmtree(self.durability_dir, ignore_errors=True)


async def _call(traced: bool, name: str, awaitable) -> Any:
    if not traced:
        return await awaitable
    span, token = trace.open_span(name)
    trace.TRACER.call = span
    try:
        return await awaitable
    finally:
        trace.close_span(span, token)


async def issue(target: Any, request: Request, traced: bool = False) -> Any:
    """Send one benchmark request; returns its reply."""
    op = request.op
    if op in (VERIFY, WRITE):
        translation = await _call(traced, "client.translate", target.translate(request.text))
        result = await _call(traced, "client.execute", target.execute(request.text))
        return translation, result
    if op == "relation":
        return await _call(
            traced,
            "client.narrate_relation",
            target.narrate_relation(request.text, limit=request.limit),
        )
    if op == "database":
        return await _call(traced, "client.narrate_database", target.narrate_database())
    if op == "explain":
        return await _call(traced, "client.explain_empty", target.explain_empty(request.text))
    raise ValueError(f"unknown request op {op!r}")


async def warm_up(deployment: Deployment, requests: Sequence[Request]) -> None:
    for request in requests:
        await issue(deployment.target(request.domain), request)


@dataclass
class Segment:
    """One slice of a timed phase: wall and program CPU seconds, requests done."""

    traced: bool
    wall_s: float
    completed: int
    result_rows: int
    cpu_s: float = 0.0


@dataclass
class Phase:
    """What one timed phase measured, unscaled.

    ``latencies`` are read on the program's CPU clocks and
    ``wall_latencies`` on the wall clock, by request kind;
    ``latency_slices`` gives the slice each sample ran in.  Slice times
    leave out the probe bursts between slices; ``probe`` holds those
    bursts, one more than there are slices.
    """

    fingerprints: List[bytes]
    latencies: Dict[str, List[float]]
    wall_latencies: Dict[str, List[float]]
    latency_slices: Dict[str, List[int]]
    failed: int
    segments: List[Segment]
    peak_rss_mb: float
    probe: hostspeed.Probe
    stats_before: Dict[str, Any] = field(default_factory=dict)
    stats_after: Dict[str, Any] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return sum(len(samples) for samples in self.latencies.values())

    @property
    def wall_s(self) -> float:
        return sum(segment.wall_s for segment in self.segments)

    @property
    def cpu_s(self) -> float:
        return sum(segment.cpu_s for segment in self.segments)

    @property
    def result_rows(self) -> int:
        return sum(segment.result_rows for segment in self.segments)

    def scaled_latencies(self, kind: str) -> List[float]:
        """Latencies of ``kind`` at the reference host speed, each by its slice's factor."""
        scales = self.probe.slice_scales()
        return [
            value * scales[index]
            for value, index in zip(self.latencies[kind], self.latency_slices[kind])
        ]

    def scaled_seconds(self) -> tuple:
        """(wall, CPU) seconds of all slices at the reference host speed."""
        scales = self.probe.slice_scales()
        return (
            sum(segment.wall_s * scale for segment, scale in zip(self.segments, scales)),
            sum(segment.cpu_s * scale for segment, scale in zip(self.segments, scales)),
        )


async def _client(
    deployment: Deployment,
    stream: Stream,
    rids: range,
    fingerprints: List[bytes],
    latencies: Dict[str, List[float]],
    wall_latencies: Dict[str, List[float]],
    latency_slices: Dict[str, List[int]],
    clock: "ProgramClock",
    segment: int,
    traced: bool,
) -> tuple:
    """One closed loop over requests ``rids`` of slice ``segment``.

    Returns (failed, result rows).
    """
    failed = rows = 0
    for rid in rids:
        request = stream.timed[rid]
        target = deployment.target(request.domain)
        if traced:
            span, token = trace.open_span(f"request.{request.kind}", rid)
        started, cpu_started = _now(), clock()
        try:
            reply = await issue(target, request, traced)
        except Exception as error:  # a failed request: counted, never a sample
            reply = (oracle.FAILED, f"{type(error).__name__}: {error}")
            failed += 1
        else:
            latencies[request.kind].append(clock() - cpu_started)
            wall_latencies[request.kind].append(_now() - started)
            latency_slices[request.kind].append(segment)
        finally:
            if traced:
                trace.close_span(span, token)
        fingerprints[rid] = oracle.fingerprint(request, reply)
        if isinstance(reply, tuple) and isinstance(reply[-1], QueryResult):
            rows += len(reply[-1].rows)
    return failed, rows


def traced_segments(count: int) -> List[bool]:
    """Which of ``count`` segments a traced run traces: pairs in ABBA order.

    Pair k is (untraced, traced) for even k and (traced, untraced) for
    odd k, so a drift in host speed within a pair favours neither side.
    """
    return [(index % 2 == 1) != ((index // 2) % 2 == 1) for index in range(count)]


async def timed_phase(deployment: Deployment, stream: Stream, plan: str) -> Phase:
    """Drive the timed requests through ``stream.clients`` closed loops.

    The requests run in :data:`SEGMENTS` consecutive slices; every client
    finishes a slice before the next starts, and a probe burst runs
    before the first slice and after each one.  ``plan`` is ``"off"`` (no
    spans), ``"all"`` (every slice traced) or ``"pairs"`` (every other
    slice, :func:`traced_segments`, so each traced slice has an untraced
    neighbour to compare with).
    """
    stats_before = await deployment.stats()
    pids = stats_before["pids"]
    clock = ProgramClock(pids)
    count = len(stream.timed)
    bounds = sorted({round(count * k / SEGMENTS) for k in range(SEGMENTS + 1)})
    slices = len(bounds) - 1
    traced = traced_segments(slices) if plan == "pairs" else [plan == "all"] * slices
    fingerprints: List[bytes] = [b""] * count
    latencies: Dict[str, List[float]] = {kind: [] for kind in KINDS}
    wall_latencies: Dict[str, List[float]] = {kind: [] for kind in KINDS}
    latency_slices: Dict[str, List[int]] = {kind: [] for kind in KINDS}
    probe = hostspeed.Probe()
    segments: List[Segment] = []
    failed = 0
    probe.burst()
    for index, ((first, last), on) in enumerate(zip(zip(bounds, bounds[1:]), traced)):
        if on:
            await deployment.set_tracing(True)
        done_before = sum(len(samples) for samples in latencies.values())
        started, cpu_started = _now(), clock()
        # Client c sends the slice's requests whose index is c modulo
        # the client count, as one round-robin split of the whole stream.
        shares = [
            range(first + (client - first) % stream.clients, last, stream.clients)
            for client in range(stream.clients)
        ]
        outcomes = await asyncio.gather(
            *[
                _client(
                    deployment, stream, share, fingerprints, latencies, wall_latencies,
                    latency_slices, clock, index, on,
                )
                for share in shares
            ]
        )
        wall, cpu = _now() - started, clock() - cpu_started
        if on:
            await deployment.set_tracing(False)
        failed += sum(outcome[0] for outcome in outcomes)
        segments.append(
            Segment(
                traced=on,
                wall_s=wall,
                completed=sum(len(samples) for samples in latencies.values()) - done_before,
                result_rows=sum(outcome[1] for outcome in outcomes),
                cpu_s=cpu,
            )
        )
        probe.burst()
    peak = proc_peak_rss_mb("self") + sum(proc_peak_rss_mb(pid) for pid in pids)
    stats_after = await deployment.stats()
    return Phase(
        fingerprints=fingerprints,
        latencies=latencies,
        wall_latencies=wall_latencies,
        latency_slices=latency_slices,
        failed=failed,
        segments=segments,
        peak_rss_mb=peak,
        probe=probe,
        stats_before=stats_before,
        stats_after=stats_after,
    )


async def set_up(stream: Stream, workdir: str, trace_dir: Optional[str] = None) -> tuple:
    """Start the program and run the warm-up; returns (deployment, seconds)."""
    started = _now()
    deployment = Deployment(stream.workload, workdir, trace_dir)
    try:
        await deployment.start()
        await warm_up(deployment, stream.warmup)
    except BaseException:
        await deployment.close()
        deployment.discard()
        raise
    return deployment, _now() - started


async def measure(
    stream: Stream,
    workdir: str,
    setup_probe: hostspeed.Probe,
    plan: str = "off",
    trace_dir: Optional[str] = None,
) -> tuple:
    """Set up, run the timed phase, shut down; returns (deployment, setup seconds, phase).

    ``setup_probe`` takes a burst right after set-up.  ``plan`` is the
    timed phase's tracing plan; shard workers of a traced phase write
    their spans into ``trace_dir``.  The caller owns
    ``deployment.discard()`` (its durability directory is still needed
    for the recovery check).
    """
    deployment, setup_s = await set_up(stream, workdir, trace_dir)
    setup_probe.burst(hostspeed.SETUP_REPS)
    try:
        phase = await timed_phase(deployment, stream, plan)
    finally:
        await deployment.close()
    return deployment, setup_s, phase


# ---------------------------------------------------------------------------
# Whole-program accounting: CPU clocks and /proc
# ---------------------------------------------------------------------------


class ProgramClock:
    """CPU seconds used so far by every program process, all threads.

    This process (client, event loop, service pool threads or shard
    router) and the shard workers ``pids``, each read on its kernel
    CPU clock (``clock_getcpuclockid``: nanoseconds, user plus system,
    hypervisor steal left out).
    """

    def __init__(self, pids: Sequence[int]) -> None:
        # glibc's clock_getcpuclockid(pid): the process-wide scheduler clock.
        self._clocks = [((~pid) << 3) | 2 for pid in pids]

    def __call__(self) -> float:
        return time.process_time() + sum(time.clock_gettime(clock) for clock in self._clocks)


def proc_peak_rss_mb(pid: Any) -> float:
    """Peak resident set (VmHWM) of process ``pid`` in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
