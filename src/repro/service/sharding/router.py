"""The shard router: shape routing over worker processes.

:class:`ShardRouter` is the multi-process successor to a single
:class:`~repro.service.service.NarrationService` session: same awaitable
surface (``translate`` / ``execute`` / ``explain_empty`` /
``narrate_database`` / ``narrate_relation`` / ``stats``), but behind it N
worker processes each own a full (schema, database) replica and a private
compiled pipeline — so throughput scales with cores instead of saturating
one GIL.

Routing
-------

Reads and explanations go to worker ``shape_hash(sql) % workers``:
:func:`repro.sql.shape.shape_hash` is the process-stable 64-bit hash of
the masked SQL shape, so every literal variant of one query shape lands
on the same worker, keeping that worker's phrase-plan store, exact-text
LRU and parameterised-plan cache hot for the shapes it owns.  Narrations
route by a stable hash of their arguments for the same affinity reason.
A router's worker count is fixed for its life, so placement is plain
index arithmetic (:func:`failover_order`).

Writes
------

A mutating statement broadcasts to *all* replicas under a monotonic
sequence number.  The sequence is an ordering barrier twice over: on each
worker the mutation waits for in-flight work and runs alone (see
:mod:`.worker`), and on the router a read routed after a write is not
sent until its target worker acked that write
(:meth:`~.supervisor.WorkerHandle.wait_applied`).  Any interleaving of
concurrent clients therefore observes some serial history, the *same*
history on every replica — which is what makes shard-tier output
byte-identical to the single-process service, the retained oracle.

Supervision
-----------

A dead worker (socket EOF, or a response frame the router cannot decode)
fails its in-flight requests with the typed
:class:`~.supervisor.WorkerCrashed`, then the router respawns it: fresh
process from the same factories, the mutation log tail replayed in
sequence order (the replica converges to the fleet state; rejected
entries re-reject and still advance the watermark), then reopen.  The
rebuild runs under the mutation lock and the worker reopens for traffic
only once it has converged, so neither reads nor new writes can observe
(or interleave with) a half-rebuilt replica.  The respawned worker's
caches start empty; its shapes are admitted again on their second
sighting, like any shape.  Once ``max_respawns`` is exhausted the worker
is marked permanently dead and its requests fail fast with
:class:`ShardError`.

Resilience
----------

:class:`ShardRouterConfig` holds the deadlines and the respawn budget;
the semantics are:

* **Deadlines** — every read carries a
  :class:`~repro.service.resilience.Deadline` (default
  ``request_timeout``), honored while waiting for a ready worker, at the
  read-after-write barrier, and across the worker round-trip; the
  remaining budget also ships to the worker so its session can shed a
  read that expired while it waited its turn.  Expiry raises the typed
  :class:`~repro.service.resilience.DeadlineExceeded`.  A mutation's
  deadline is the caller's ``timeout`` alone, honored before the
  broadcast begins.
* **Retries** — reads are idempotent (routing is deterministic, replicas
  are byte-equivalent), so a read that hits a crashed worker or an
  attempt timeout retries under a default
  :class:`~repro.service.resilience.RetryPolicy` (exponential backoff,
  seeded jitter) within its deadline.  **Mutations are never
  auto-retried**: a crashed worker may or may not have applied the
  write, and the log replay — not a blind resend — is what converges it.
* **Degraded rerouting** — a read whose shape-owner is dead, rebuilding
  or breaker-open reroutes to the next live worker after it in index
  order (wrapping round) instead of failing or waiting: every replica
  holds the full database, so the result is byte-identical — only
  colder (the fallback's caches do not own this shape).  The read still honors the write barrier on the
  worker that actually serves it.
* **Circuit breaking** — one closed/open/half-open
  :class:`~repro.service.resilience.CircuitBreaker` per worker counts
  infrastructure failures (crashes, attempt timeouts — never SQL
  errors); an open breaker diverts reads away from a sick-but-connected
  worker until its half-open probe succeeds.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.query_nl.translator import QueryTranslation
from repro.service.resilience import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
)
from repro.service.service import ServiceClosed
from repro.service.sharding.protocol import (
    CHECKPOINT,
    SHUTDOWN,
    STATS,
    unwire_translation,
)
from repro.service.sharding.supervisor import (
    ShardError,
    WorkerCrashed,
    WorkerHandle,
    default_start_method,
)
from repro.sql.shape import is_mutation as _is_mutation, shape_hash, stable_hash
from repro.storage.config import StorageConfig
from repro.storage.durability import DurabilityConfig
from repro.storage.snapshot import latest_snapshot, prune_snapshots
from repro.storage.wal import WriteAheadLog

__all__ = ["ShardRouter", "ShardRouterConfig", "failover_order"]

#: Seconds a worker gets to drain politely on ``aclose`` before the
#: supervisor terminates it.
_SHUTDOWN_TIMEOUT = 10.0
#: Seconds ``stats()`` waits for each worker to be ready.
_STATS_TIMEOUT = 30.0
#: Sleep slice while every candidate worker is ready but breaker-blocked.
_BREAKER_WAIT = 0.02


@dataclass(frozen=True)
class ShardRouterConfig:
    """The shard tier's read deadlines and respawn budget.

    ``request_timeout``
        Overall per-read deadline in seconds (``None`` = unbounded).
    ``attempt_timeout``
        One worker round-trip's slice of that deadline: a dropped
        response frame costs this much, not the whole budget.
    ``max_respawns``
        Crash-respawn budget per worker slot before it is marked
        permanently dead.
    """

    request_timeout: Optional[float] = 60.0
    attempt_timeout: float = 10.0
    max_respawns: int = 8

    def __post_init__(self) -> None:
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if self.attempt_timeout <= 0:
            raise ValueError("attempt_timeout must be positive")


def failover_order(key_hash: int, workers: int) -> List[int]:
    """Every worker index once: the owner of ``key_hash``, then the rest.

    The owner is ``key_hash % workers``; the workers after it, wrapping
    round, are the degradation order a read falls back along when its
    owner is down.  Like placement itself, the order is a pure function
    of the key, identical in every process.
    """
    owner = key_hash % workers
    return [(owner + step) % workers for step in range(workers)]


class ShardRouter:
    """Shape routing over per-core worker processes.

    ::

        async with ShardRouter(movie_database, spec_factory=movie_spec,
                               workers=4) as router:
            translation = await router.translate(sql)
            answer = await router.execute(sql)
            await router.execute("insert into GENRE values (7, 'noir')")
            print(router_stats_summary := await router.stats())

    ``database_factory`` (and the optional ``spec_factory``) must be
    importable module-level callables — each worker *builds* its replica
    by calling them in its own process; nothing heavyweight is pickled
    across.  The single-process service remains the oracle: every result
    is byte-identical to what one ``NarrationService`` session would
    return for the same request history.
    """

    def __init__(
        self,
        database_factory: Union[str, Callable],
        spec_factory: Union[str, Callable, None] = None,
        workers: int = 2,
        phrase_plans: Optional[bool] = None,
        config: Optional[ShardRouterConfig] = None,
        durability: Optional[DurabilityConfig] = None,
        storage: Optional[StorageConfig] = None,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self._config = config if config is not None else ShardRouterConfig()
        self.workers = workers
        self._durability = durability
        self._spec = {
            "database_factory": _factory_path(database_factory),
            "spec_factory": (
                _factory_path(spec_factory) if spec_factory is not None else None
            ),
            "phrase_plans": phrase_plans,
            "durability_dir": (
                str(durability.directory) if durability is not None else None
            ),
            # A frozen dataclass of plain values: pickles across the
            # process boundary as-is.  Workers apply it when building
            # their replicas, so every shard runs the same engines.
            # Leave ``directory`` unset for the paged engine here —
            # workers sharing one heap directory would clobber each
            # other's files; each replica gets its own temp-file heap.
            "storage": storage,
        }
        self._start_method = default_start_method()
        self._handles: List[WorkerHandle] = [
            WorkerHandle(index, self._spec, self._start_method)
            for index in range(workers)
        ]
        self._breakers: List[CircuitBreaker] = [
            CircuitBreaker() for _ in range(workers)
        ]
        self._retry = RetryPolicy()
        self._started = False
        self._closed = False
        self._start_lock = asyncio.Lock()
        # Writes: the monotonic sequence and the replay log (seq, sql).
        # With durability configured the log's source of truth is the
        # WAL on disk (opened in start()); this list is the in-memory
        # tail since the last checkpoint, bounded by compaction.
        self._mutation_seq = 0
        self._mutation_log: List[Tuple[int, str]] = []
        self._mutation_lock = asyncio.Lock()
        self._wal: Optional[WriteAheadLog] = None
        self._snapshot_seq = 0  # newest on-disk checkpoint's seq
        self._since_checkpoint = 0
        self._checkpoints = 0
        self._compactions = 0
        self._recovered_mutations = 0
        self._counts: Dict[str, int] = {}
        self._crashes = 0
        self._retries = 0
        self._degraded_reads = 0
        self._deadline_expired = 0
        self._respawn_tasks: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Spawn every worker and wait for the fleet to come up.

        With durability configured, starting *is* recovery: the WAL is
        opened (truncating a torn tail, failing typed on mid-log
        corruption), the mutation sequence resumes where the previous
        router generation left off, each worker fast-forwards from the
        newest snapshot, and the router replays only the log tail the
        snapshot does not cover — all before the first request is
        admitted.
        """
        async with self._start_lock:
            if self._started:
                return
            self._check_open()
            if self._durability is not None and self._wal is None:
                self._open_wal()
            for handle in self._handles:
                handle.set_crash_callback(self._on_crash)
            results = await asyncio.gather(
                *[self._start_worker(handle) for handle in self._handles],
                return_exceptions=True,
            )
            errors = [r for r in results if isinstance(r, BaseException)]
            if errors:
                for handle in self._handles:
                    await handle.stop()
                raise errors[0]
            self._started = True

    def _open_wal(self) -> None:
        """Open (= recover) the router's WAL and resume the sequence."""
        from repro.errors import RecoveryError

        durability = self._durability
        assert durability is not None
        info = latest_snapshot(durability.directory)
        self._snapshot_seq = info.wal_seq if info is not None else 0
        self._wal = WriteAheadLog(
            durability.wal_path,
            fsync=durability.fsync,
            batch_every=durability.batch_every,
            injector=durability.injector,
        )
        if not self._wal.recovered:
            self._wal.set_base(self._snapshot_seq)
        tail = [
            (record.seq, record.payload["sql"])
            for record in self._wal.recovered
            if record.seq > self._snapshot_seq
        ]
        if tail and tail[0][0] > self._snapshot_seq + 1:
            raise RecoveryError(
                f"WAL gap: snapshot covers seq {self._snapshot_seq} but the"
                f" log resumes at seq {tail[0][0]}"
            )
        self._mutation_seq = max(self._wal.last_seq, self._snapshot_seq)
        self._mutation_log = tail
        self._since_checkpoint = len(tail)
        self._recovered_mutations = len(tail)

    async def _start_worker(self, handle: WorkerHandle) -> None:
        """Spawn one worker and converge it before opening for traffic.

        The fresh replica restored the newest snapshot in its own
        process (``restored_seq`` in the hello); the router fast-forwards
        the ack watermark to that seq and replays only the mutations the
        snapshot does not cover.  Without durability the log is empty at
        start and this is exactly spawn-and-open.
        """
        await handle.spawn(open_for_traffic=False)
        if handle.restored_seq:
            await handle.mark_applied(handle.restored_seq)
        for seq, sql in self._mutation_log:
            if seq <= handle.restored_seq:
                continue
            try:
                await handle.request("execute", sql, seq=seq)
            except (ShardError, asyncio.TimeoutError):
                raise  # the fresh incarnation itself died
            except Exception:
                # A deterministically-rejected mutation: the fleet
                # applied nothing for this seq and neither does the
                # replica — the watermark still advanced, so keep
                # replaying.
                pass
        handle.ready.set()

    async def aclose(self) -> None:
        """Gracefully shut the fleet down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for task in list(self._respawn_tasks):
            task.cancel()
        if self._started:
            # Polite first: every live worker drains its service and
            # exits 0; stop() then only has to join.
            await asyncio.gather(
                *[
                    self._shutdown_worker(handle)
                    for handle in self._handles
                ],
                return_exceptions=True,
            )
        for handle in self._handles:
            await handle.stop()
        if self._wal is not None:
            self._wal.close()  # flush any batched group commit
            self._wal = None

    async def _shutdown_worker(self, handle: WorkerHandle) -> None:
        if handle.alive:
            try:
                await asyncio.wait_for(
                    handle.request(SHUTDOWN, None),
                    timeout=_SHUTDOWN_TIMEOUT,
                )
            except Exception:
                pass  # stop() terminates what would not drain

    async def __aenter__(self) -> "ShardRouter":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Public request API (mirrors NarrationSession)
    # ------------------------------------------------------------------

    async def translate(
        self, sql: str, timeout: Optional[float] = None
    ) -> QueryTranslation:
        """Translate SQL to natural language on the shape's worker."""
        wire = await self._routed("translate", sql, shape_hash(sql), timeout=timeout)
        return unwire_translation(wire)

    async def execute(self, sql: str, timeout: Optional[float] = None):
        """Execute SQL: reads on the shape's worker, writes on every worker.

        Reads are idempotent and auto-retry (and degrade to the next live
        replica) within their deadline; mutations
        never do — see the module docstring's retry/idempotency contract.
        """
        if _is_mutation(sql):
            return await self._broadcast_mutation(sql, timeout=timeout)
        return await self._routed("execute", sql, shape_hash(sql), timeout=timeout)

    async def explain_empty(self, sql: str, timeout: Optional[float] = None):
        """Explain an empty (or very large) answer on the shape's worker."""
        return await self._routed("explain", sql, shape_hash(sql), timeout=timeout)

    async def narrate_database(self, *, timeout: Optional[float] = None, **kwargs) -> str:
        """Narrate the database contents (routed by argument shape)."""
        return await self._routed(
            "narrate_database",
            kwargs,
            stable_hash(f"narrate_database:{sorted(kwargs.items())!r}"),
            timeout=timeout,
        )

    async def narrate_relation(
        self, relation_name: str, *, timeout: Optional[float] = None, **kwargs
    ) -> str:
        """Narrate one relation's (top) tuples (routed by relation)."""
        return await self._routed(
            "narrate_relation",
            (relation_name, kwargs),
            stable_hash(f"narrate_relation:{relation_name}:{sorted(kwargs.items())!r}"),
            timeout=timeout,
        )

    async def stats(self) -> Dict[str, Any]:
        """The fleet view: per-worker session stats plus router aggregates.

        ``fleet`` sums the interesting counters across workers (requests
        by kind, phrase-plan and parameterised-plan hits/misses);
        ``workers`` holds each worker's full
        :meth:`NarrationSession.stats` snapshot together with its pid,
        mutation watermark and respawn count; ``router`` covers routing
        itself (per-kind routed counts, mutations, crashes, respawns).
        """
        self._check_open()
        await self.start()
        snapshots: List[Optional[Dict[str, Any]]] = []
        for handle in self._handles:
            breaker = self._breakers[handle.index]
            if handle.gave_up:
                snapshots.append(
                    {"health": "dead", "breaker": breaker.stats(), "session": None}
                )
                continue
            try:
                await asyncio.wait_for(
                    handle.ready.wait(), timeout=_STATS_TIMEOUT
                )
                remote = await handle.request(STATS, None)
            except Exception:
                snapshots.append(
                    {
                        "health": handle.health,
                        "breaker": breaker.stats(),
                        "session": None,
                    }
                )
                continue
            snapshots.append(
                {
                    "pid": remote["pid"],
                    "health": handle.health,
                    "breaker": breaker.stats(),
                    "applied_seq": handle.applied_seq,
                    "respawns": handle.respawns,
                    "session": remote["session"],
                }
            )
        durability_stats: Optional[Dict[str, Any]] = None
        if self._wal is not None:
            durability_stats = {
                "directory": self._spec["durability_dir"],
                "recovered_mutations": self._recovered_mutations,
                "snapshot_seq": self._snapshot_seq,
                "checkpoints": self._checkpoints,
                "since_checkpoint": self._since_checkpoint,
                "wal": self._wal.stats(),
            }
        return {
            "workers": snapshots,
            "fleet": _aggregate_fleet(snapshots),
            "router": {
                "workers": self.workers,
                "start_method": self._start_method,
                "requests_by_kind": dict(self._counts),
                "mutations": self._mutation_seq,
                "mutation_log": len(self._mutation_log),
                "compactions": self._compactions,
                "durability": durability_stats,
                "crashes": self._crashes,
                "respawns": sum(handle.respawns for handle in self._handles),
                "retries": self._retries,
                "degraded_reads": self._degraded_reads,
                "deadline_expired": self._deadline_expired,
                "breaker_trips": sum(b.trips for b in self._breakers),
                "worker_health": [handle.health for handle in self._handles],
                "dead_workers": [
                    handle.index for handle in self._handles if handle.gave_up
                ],
            },
        }

    def kill_worker(self, index: int) -> Optional[int]:
        """SIGKILL one worker (crash drills): returns its pid.

        The router notices the death exactly as it would a real crash —
        in-flight requests on that worker fail with
        :class:`WorkerCrashed`, and supervision respawns the worker and
        replays the mutation log into the replacement.
        """
        handle = self._handles[index]
        pid = handle.pid
        handle.kill()
        return pid

    # ------------------------------------------------------------------
    # Routing internals
    # ------------------------------------------------------------------

    async def _routed(
        self,
        kind: str,
        payload: Any,
        key_hash: int,
        timeout: Optional[float] = None,
    ) -> Any:
        """Serve one idempotent read under the full resilience contract.

        Pick a worker (the shape's owner, or — degraded — the next live
        worker in :func:`failover_order` when the owner is dead,
        rebuilding or breaker-open),
        honor the read-after-write barrier on whichever worker serves,
        and run the round-trip inside an attempt slice of the request
        deadline.  Infrastructure failures (crash, attempt timeout,
        mid-wait give-up) retry under the router's :class:`RetryPolicy`;
        pipeline errors (the worker answered; the SQL was bad) propagate
        immediately and count as breaker successes.  The deadline is terminal: expiry
        raises :class:`DeadlineExceeded` no matter how many attempts
        remain.
        """
        self._check_open()
        await self.start()
        config = self._config
        deadline = Deadline.after(
            timeout if timeout is not None else config.request_timeout
        )
        order = failover_order(key_hash, self.workers)
        primary = order[0]
        self._counts[kind] = self._counts.get(kind, 0) + 1
        policy = self._retry
        salt = f"{kind}:{key_hash}"
        attempt = 0
        while True:
            attempt += 1
            index, handle = await self._pick_worker(order, deadline)
            if index != primary:
                self._degraded_reads += 1
            breaker = self._breakers[index]
            # Read-after-write barrier: never send a read to a worker
            # that has not acked every mutation sequenced before this
            # request — degraded or not, every replica applies every
            # write, so the barrier holds on whichever worker serves.
            # A worker that has acked it already costs no wait (and no
            # timer).  The worker may die between the pick and the send;
            # read() then refuses to hand the frame to its respawn.
            barrier = self._mutation_seq
            try:
                if handle.applied_seq < barrier:
                    await asyncio.wait_for(
                        handle.wait_applied(barrier), deadline.remaining()
                    )
                result = await asyncio.wait_for(
                    handle.read(
                        kind,
                        payload,
                        budget=deadline.bound(config.attempt_timeout),
                    ),
                    deadline.bound(config.attempt_timeout),
                )
            except asyncio.CancelledError:
                raise
            except (ShardError, asyncio.TimeoutError) as error:
                # Infrastructure failure: the worker crashed mid-request
                # (WorkerCrashed), gave up mid-barrier-wait (ShardError),
                # or the attempt slice / deadline ran out (TimeoutError —
                # including a worker-side DeadlineExceeded shed).
                breaker.record_failure()
                if deadline.expired:
                    self._deadline_expired += 1
                    raise DeadlineExceeded(
                        f"{kind} request deadline expired after {attempt}"
                        f" attempt(s) (last failure: {error!r})"
                    ) from error
                if not policy.should_retry(attempt, deadline):
                    raise
                self._retries += 1
                delay = deadline.bound(policy.delay(attempt, salt))
                if delay:
                    await asyncio.sleep(delay)
            except BaseException:
                # The worker answered; the *pipeline* rejected the
                # request (bad SQL, constraint violation).  That is a
                # healthy worker — and never retryable: the rejection is
                # deterministic.
                breaker.record_success()
                raise
            else:
                breaker.record_success()
                return result

    async def _pick_worker(
        self, order: List[int], deadline: Deadline
    ) -> Tuple[int, WorkerHandle]:
        """The first live, breaker-admitted worker in ``order``.

        A dead/rebuilding/breaker-open owner is skipped in favour of the
        next live node.  When nothing is immediately eligible the pick
        waits — on the first viable worker's ready gate, or out a
        breaker slice — bounded by the deadline.  Raises
        :class:`ShardError` terminally when every worker's respawn
        budget is exhausted.
        """
        while True:
            viable = [i for i in order if not self._handles[i].gave_up]
            if not viable:
                raise ShardError(
                    "every worker is permanently down (respawn budget of"
                    f" {self._config.max_respawns} exhausted)"
                )
            blocked_but_ready = False
            for index in viable:
                handle = self._handles[index]
                if not handle.ready.is_set():
                    continue
                if not self._breakers[index].allow():
                    blocked_but_ready = True
                    continue
                return index, handle
            if deadline.expired:
                self._deadline_expired += 1
                raise DeadlineExceeded(
                    "deadline expired before any worker became available"
                )
            if blocked_but_ready:
                # Ready workers exist but every breaker is open: wait out
                # a slice of the breaker timer rather than busy-spinning.
                await asyncio.sleep(deadline.bound(_BREAKER_WAIT))
                continue
            # Nothing ready at all (fleet-wide respawn in flight): wait
            # on the first viable worker's gate under the deadline.
            target = self._handles[viable[0]]
            try:
                await asyncio.wait_for(target.ready.wait(), deadline.remaining())
            except asyncio.TimeoutError:
                self._deadline_expired += 1
                raise DeadlineExceeded(
                    f"deadline expired waiting for worker {target.index}"
                    " to come back"
                ) from None

    async def _broadcast_mutation(self, sql: str, timeout: Optional[float] = None):
        self._check_open()
        await self.start()
        deadline = Deadline.after(timeout)
        deadline.require("the mutation broadcast was admitted")
        async with self._mutation_lock:
            # Deadlines stop at this door: once the broadcast holds the
            # lock, every barrier frame runs to completion.  Cancelling a
            # barrier round-trip mid-flight would leave the seq unacked
            # on that worker and wedge (now: expire) every later read
            # barriered on it — convergence outranks latency for writes.
            deadline.require("the mutation broadcast began")
            # Checkpoint on cadence *before* admitting the next write:
            # under the lock the fleet is quiescent and every ready
            # worker has applied everything up to _mutation_seq, so the
            # snapshot is consistent by construction.
            if (
                self._wal is not None
                and self._durability.checkpoint_every
                and self._since_checkpoint >= self._durability.checkpoint_every
            ):
                await self._checkpoint_locked()
            # The lock holds across *all* sends: were two mutations to
            # interleave their broadcasts, workers could apply them in
            # different orders and the replicas would diverge forever.
            self._mutation_seq += 1
            seq = self._mutation_seq
            if self._wal is not None:
                # Log-before-broadcast: once any replica applies this
                # write, it is already on disk and survives losing every
                # process (fsync policy decides about losing the machine).
                self._wal.append({"sql": sql}, seq=seq)
                self._since_checkpoint += 1
            self._mutation_log.append((seq, sql))
            self._counts["execute_mutation"] = (
                self._counts.get("execute_mutation", 0) + 1
            )
            results = []
            failures: List[BaseException] = []
            rejection: Optional[BaseException] = None
            for handle in self._handles:
                if not handle.ready.is_set():
                    # Dead, permanently down, or mid-respawn.  Skipping is
                    # safe: the not-ready → ready transition only happens
                    # in _respawn *under this same lock* after replaying
                    # the complete log — which now contains this entry —
                    # so the worker cannot reopen having missed the write.
                    failures.append(
                        WorkerCrashed(f"worker {handle.index} is down")
                    )
                    continue
                try:
                    results.append(await handle.request("execute", sql, seq=seq))
                except WorkerCrashed as error:
                    # The replica died mid-write; its respawn replays the
                    # log (this mutation included), so the fleet still
                    # converges.  The caller's result comes from the
                    # survivors.
                    failures.append(error)
                except (ShardError, asyncio.TimeoutError) as error:
                    failures.append(error)
                except asyncio.CancelledError:
                    raise
                except BaseException as error:
                    # A *pipeline* error (bad SQL, constraint violation)
                    # is deterministic: every replica rejects identically
                    # and applies nothing.  Keep delivering the frame to
                    # the remaining workers — each must still process the
                    # barrier and ack the seq (request() advances the
                    # watermark on ERR) — then surface the first.  The
                    # entry stays in the log so replayed seqs stay
                    # contiguous; replay tolerates the re-rejection.
                    if rejection is None:
                        rejection = error
            if rejection is not None:
                raise rejection
            if not results:
                raise failures[0] if failures else ShardError(
                    "mutation reached no worker"
                )
            return results[0]

    # ------------------------------------------------------------------
    # Checkpointing (durability)
    # ------------------------------------------------------------------

    async def checkpoint(self) -> Optional[int]:
        """Checkpoint the fleet now; returns the seq covered (or ``None``).

        Only meaningful with durability configured.  Takes the mutation
        lock, so it serialises against broadcasts and respawns exactly
        like the automatic cadence checkpoint does.
        """
        if self._wal is None:
            raise ValueError("this router has no durability configured")
        self._check_open()
        await self.start()
        async with self._mutation_lock:
            return await self._checkpoint_locked()

    async def _checkpoint_locked(self) -> Optional[int]:
        """Snapshot one ready replica, then compact (mutation lock held).

        Any ready worker's state is every worker's state (replicas are
        byte-identical by the barrier protocol), so the first ready one
        contributes the snapshot.  Best-effort: if no worker is ready or
        the snapshot fails, the WAL still holds the full tail and the
        next cadence hit tries again.  On success the WAL and the
        in-memory mutation log both drop everything the snapshot covers —
        which is what bounds the router's memory on write-heavy runs.
        """
        assert self._wal is not None and self._durability is not None
        seq = self._mutation_seq
        target = next(
            (handle for handle in self._handles if handle.ready.is_set()), None
        )
        if target is None:
            return None
        directory = self._spec["durability_dir"]
        try:
            await target.request(CHECKPOINT, (directory, seq))
        except asyncio.CancelledError:
            raise
        except BaseException:
            return None
        self._wal.commit()  # the tail is synced before anything is dropped
        self._wal.compact(seq)
        prune_snapshots(directory, keep=self._durability.keep_snapshots)
        self._snapshot_seq = seq
        self._mutation_log = [
            (entry_seq, entry_sql)
            for entry_seq, entry_sql in self._mutation_log
            if entry_seq > seq
        ]
        self._since_checkpoint = len(self._mutation_log)
        self._checkpoints += 1
        self._compactions += 1
        return seq

    # ------------------------------------------------------------------
    # Supervision internals
    # ------------------------------------------------------------------

    def _on_crash(self, handle: WorkerHandle) -> None:
        if self._closed:
            return
        self._crashes += 1
        task = asyncio.get_running_loop().create_task(self._respawn(handle))
        self._respawn_tasks.add(task)
        task.add_done_callback(self._respawn_tasks.discard)

    async def _respawn(self, handle: WorkerHandle) -> None:
        """Fresh process → replay the mutation log tail → reopen."""
        if handle.respawns >= self._config.max_respawns:
            # Permanently down: fail fast and typed from now on (the
            # ready gate stays cleared; give_up also wakes any reader
            # blocked on the watermark).
            await handle.give_up()
            return
        handle.respawns += 1
        try:
            # The whole rebuild holds the mutation lock, and the worker
            # reopens (ready.set) only at the very end: a concurrent
            # broadcast can therefore neither deliver a new seq before
            # the historical log has been replayed (out-of-order apply)
            # nor observe a reopened worker that missed a write — and
            # reads keep waiting on the ready gate, never reaching the
            # fresh replica before it has converged.
            async with self._mutation_lock:
                await self._start_worker(handle)
                # A fresh, converged incarnation deserves a fresh breaker:
                # the failures that tripped it died with the old process.
                self._breakers[handle.index].reset()
        except asyncio.CancelledError:
            raise
        except BaseException:
            # The respawn itself failed (possibly a crash loop); the
            # crash callback of the failed incarnation tries again until
            # max_respawns is exhausted.
            return

    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosed("the shard router has been closed")


def _factory_path(factory: Union[str, Callable]) -> str:
    """``"module:qualname"`` for a module-level callable (validated)."""
    if isinstance(factory, str):
        path = factory
    else:
        path = f"{factory.__module__}:{factory.__qualname__}"
    from repro.service.sharding.worker import resolve_factory

    resolved = resolve_factory(path)  # raises early, in the parent
    if not isinstance(factory, str) and resolved is not factory:
        raise ValueError(
            f"{factory!r} is not importable as {path!r}; worker factories"
            " must be module-level callables"
        )
    return path


def _aggregate_fleet(snapshots: List[Optional[Dict[str, Any]]]) -> Dict[str, Any]:
    """Sum the load-bearing counters across worker snapshots."""
    by_kind: Dict[str, int] = {}
    plan_hits = plan_misses = 0
    shape_hits = shape_misses = shape_fallbacks = 0
    live = 0
    for snapshot in snapshots:
        if snapshot is None or snapshot.get("session") is None:
            continue
        live += 1
        session = snapshot["session"]
        for kind, count in session["requests"]["by_kind"].items():
            by_kind[kind] = by_kind.get(kind, 0) + count
        plan_store = session["translator"]["plan_store"]
        if plan_store:
            plan_hits += plan_store["hits"]
            plan_misses += plan_store["misses"]
        executor = session.get("executor")
        if executor:
            shape = executor["shape_plans"]
            shape_hits += shape["hits"]
            shape_misses += shape["misses"]
            shape_fallbacks += shape["fallbacks"]
    return {
        "live_workers": live,
        "requests_by_kind": by_kind,
        "phrase_plans": {"hits": plan_hits, "misses": plan_misses},
        "shape_plans": {
            "hits": shape_hits,
            "misses": shape_misses,
            "fallbacks": shape_fallbacks,
        },
    }
