"""The concurrent narration service: an asyncio front over the compiled pipeline.

The paper's vision is a DBMS that *talks back* interactively — which
means serving translation, narration, execution and empty-answer
explanation to many callers at once, not one synchronous caller.  PRs
1–3 made every stage of the pipeline compile-once-run-many (closure
plans, compiled templates, shape-keyed phrase plans, maintained
ranking); this module is the first layer that composes all three
compiled subsystems behind one concurrent interface.

Architecture
------------

:class:`NarrationService` owns a bounded :class:`ThreadPoolExecutor` and
a set of :class:`NarrationSession`\\ s, one per (schema, database) pair.
A session owns the shared compiled state for its schema — the
``builder_for`` query-graph builder, the ``default_lexicon_for`` lexicon
and its phrase-plan store, the compiled template registry inside its
spec, one shared :class:`~repro.engine.executor.Executor` (shape-plan,
scan and subquery caches included) and one
:class:`~repro.content.narrator.ContentNarrator` — and funnels every
request through three tiers:

* **direct-await fast path** — a translate request whose SQL hits the
  exact-text LRU or a compiled phrase plan is served inline on the event
  loop (microseconds, no parse, no graph build).  The session lock is
  only *tried*; if a worker holds it the request takes its turn like any
  other rather than blocking the loop.  Workers release the lock before
  a reply settles, so a client resumed by its reply finds it free.
* **inline on an idle session** — any other request, once admitted,
  runs on the event loop as well when the session is idle: no request
  holds or waits for the session's turn, the work lock can be taken
  without blocking, and the request cannot wait on the disk.
  ``checkpoint`` and ``snapshot_to`` never run here, nor does a durable
  session's write whose log appends could sync the log (every append
  under ``fsync="always"``, the one that completes a group commit
  under ``"batch"``) or reach the checkpoint cadence; the session
  bounds a statement's appends by its VALUES tuples.  The rule rests on
  the GIL: while a pool thread runs Python, the loop runs almost
  nothing anyway, apart from switch-interval slices and disk waits, and
  the rule keeps disk waits on the pool.  So the hand-off bought no
  concurrency, only latency: about 40 µs a request through the session
  (turn, ``wrap_future``, thread wake-ups, self-pipe), against 25 µs
  for a bare ``ThreadPoolExecutor`` round trip, on a 2-vCPU Xeon with
  both pinned to one vCPU.  The cost: a run longer than the
  interpreter's switch interval (5 ms by default) now holds the loop
  for its whole length, where a pool run would have let the loop in
  between slices.
* **one hand-off per request** — every other request waits its turn on
  the session's FIFO ``asyncio.Lock`` (arrival order), then awaits one
  call on the service's ``ThreadPoolExecutor`` that takes the work lock,
  sheds the request typed if its deadline ran out while it waited, and
  otherwise runs it.  Admission counts the requests still waiting for
  their turn.  Sessions of different schemas run on the pool in
  parallel; within a session one request runs at a time, inline or
  pooled, and the work lock serializes pipeline access, which is what
  makes the shared caches sound.

On every tier a shape's phrase plan and shape plan are compiled on its
second sighting and serve every later request of that shape; an
``explain_empty`` text, and each relaxation of an empty answer, runs
through a shape plan like an ``execute`` text.

Thread-safety contract
----------------------

Python's hot-path caches here were built for single-threaded speed
(plain dicts, ``OrderedDict`` LRUs); the service makes them safe under
concurrency with a small set of rules, each enforced in code:

* every *pipeline touch* for a session — translator, executor, narrator,
  explainer — happens under that session's ``threading.Lock`` (workers
  block on it; the event loop, fast path and inline runs alike, only
  ever try-acquires);
* state shared *across* sessions is internally locked where mutation is
  structural: the per-lexicon :class:`~repro.query_nl.plans.PlanStore`,
  the module factories (``builder_for``/``graph_for``/
  ``default_lexicon_for``/``plan_store_for``) and the masked-shape cache;
* memo dicts whose writes are single-key and value-idempotent (schema
  graph paths, lexicon lookups, template defaults, the shared
  :class:`~repro.querygraph.builder.QueryGraphBuilder`'s relation and
  FK-pair lookups) are left unlocked — a race costs a duplicate
  computation, never a wrong answer.

Because translation and narration are pure functions of (schema,
lexicon, text/data version), any interleaving of requests produces
byte-identical output to sequential synchronous calls; the equivalence
suite in ``tests/test_service.py`` asserts exactly that with 64
concurrent clients.

Observability
-------------

:meth:`NarrationSession.stats` is the per-session endpoint: request
counters by kind and by tier (``fast_path_hits``, ``inline``,
``pooled``; every admitted request counts on exactly one), the number
of requests waiting for their turn, the shed counters, the translator's
exact-text LRU and phrase-plan store statistics (including the
unplannable-shape report), the shared executor's cache statistics, and
the derived execution shape-sharing rate (what fraction of executions
were served by a compiled shape plan).  :meth:`NarrationService.stats` aggregates
every session.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from repro.catalog.schema import Schema
from repro.content.narrator import ContentNarrator
from repro.content.presets import NarrationSpec
from repro.engine.executor import Executor
from repro.lexicon.lexicon import Lexicon
from repro.query_nl.empty_answer import AnswerExplainer
from repro.query_nl.translator import QueryTranslation, QueryTranslator
from repro.service.resilience import AdmissionController, Deadline
# Not used here: talkbench/trace.py wraps this import site and needs the name.
from repro.sql.shape import batch_key  # noqa: F401
from repro.sql.shape import is_mutation
from repro.storage.database import Database
from repro.storage.durability import DurabilityConfig, DurabilityManager

__all__ = ["NarrationService", "NarrationSession", "ServiceClosed"]

#: ``NarrationService.session``'s exact-text cache size when none is given.
_DEFAULT_CACHE_SIZE = 512
#: Marks a ``session()`` argument the caller left out, so that an explicit
#: default still counts as configuration.
_UNSET: Any = object()


class ServiceClosed(RuntimeError):
    """Raised when a request is submitted to a closed service/session."""


class NarrationSession:
    """All concurrent access to one (schema, database) pair.

    Sessions are created through :meth:`NarrationService.session`; the
    translate/execute/narrate/explain coroutines are safe to call from
    many tasks at once and return exactly what the synchronous pipeline
    would.  Construction is cheap — the expensive state (executor,
    narrator, explainer) materialises on first use.
    """

    def __init__(
        self,
        service: "NarrationService",
        schema: Schema,
        database: Optional[Database],
        spec: Optional[NarrationSpec],
        lexicon: Optional[Lexicon],
        cache_size: Optional[int] = _DEFAULT_CACHE_SIZE,
        phrase_plans: Optional[bool] = None,
        admission: Optional[AdmissionController] = None,
        durability: Optional[DurabilityConfig] = None,
    ) -> None:
        self._service = service
        self.schema = schema
        # Durability attaches before anything caches the database object:
        # with prior state on disk, attach() *replaces* the database with
        # the recovered one (the argument was only a schema-shaped vessel).
        self._durability: Optional[DurabilityManager] = None
        if durability is not None:
            if database is None:
                raise ValueError("durability requires a database-backed session")
            self._durability = DurabilityManager(durability)
            database = self._durability.attach(database)
        self.database = database
        self.spec = spec
        self.translator = QueryTranslator(
            schema,
            spec=spec,
            lexicon=lexicon,
            cache_size=cache_size,
            phrase_plans=phrase_plans,
        )
        # Resilience: admission control (shedding off unless configured).
        self._admission = admission if admission is not None else AdmissionController()
        # Serializes every pipeline touch; see the module docstring's
        # thread-safety contract.
        self._work_lock = threading.Lock()
        # Counter updates come from both the event loop and the workers.
        self._stats_lock = threading.Lock()
        # Requests take their turn in arrival order (asyncio.Lock wakes
        # its waiters first in, first out); the holder's one pool call is
        # the session's only request in flight.
        self._turn = asyncio.Lock()
        self._waiting = 0
        self._executor: Optional[Executor] = None
        self._narrator: Optional[ContentNarrator] = None
        self._explainer: Optional[AnswerExplainer] = None
        self._closed = False
        self._counts: Dict[str, int] = {}
        self._fast_path_hits = 0
        self._inline = 0
        self._pooled = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    async def translate(
        self, sql: str, timeout: Optional[float] = None
    ) -> QueryTranslation:
        """Translate SQL to natural language (Section 3 of the paper).

        Plan/LRU hits are served inline.  A cold translation runs on the
        event loop too when the session is idle, and otherwise waits
        its turn and runs on the worker pool.  ``timeout`` caps this one
        request (default: unbounded); the deadline is honored at
        admission and again when a waiting request's turn comes, and
        expiry raises the typed
        :class:`~repro.service.resilience.DeadlineExceeded`.
        """
        self._check_open()
        if isinstance(sql, str) and self._work_lock.acquire(blocking=False):
            try:
                fast = self.translator.try_fast_translate(sql)
            finally:
                self._work_lock.release()
            if fast is not None:
                with self._stats_lock:
                    self._fast_path_hits += 1
                    self._counts["translate"] = self._counts.get("translate", 0) + 1
                return fast
        return await self._submit("translate", sql, Deadline.after(timeout))

    async def execute(self, sql: str, timeout: Optional[float] = None):
        """Execute SQL on the session's shared (cached, compiled) executor.

        A fresh shape's first request runs without caching anything and
        its second compiles the shape plan; every later request of that
        shape only rebinds literals.
        """
        self._check_open()
        return await self._submit("execute", sql, Deadline.after(timeout))

    async def explain_empty(self, sql: str, timeout: Optional[float] = None):
        """Explain an empty (or very large) answer (Section 3.1)."""
        self._check_open()
        return await self._submit("explain", sql, Deadline.after(timeout))

    async def narrate_database(self, *, timeout: Optional[float] = None, **kwargs) -> str:
        """Narrate the database contents (Section 2)."""
        self._check_open()
        return await self._submit("narrate_database", kwargs, Deadline.after(timeout))

    async def narrate_relation(
        self, relation_name: str, *, timeout: Optional[float] = None, **kwargs
    ) -> str:
        """Narrate one relation's (top) tuples."""
        self._check_open()
        return await self._submit(
            "narrate_relation", (relation_name, kwargs), Deadline.after(timeout)
        )

    async def checkpoint(self) -> int:
        """Snapshot the session's database now; returns the WAL seq covered.

        Only meaningful on a durable session (one created with a
        ``durability`` config) — raises :class:`ValueError` otherwise.
        Runs on the worker pool under the session work lock, so the
        snapshot sees no half-applied mutation.
        """
        self._check_open()
        if self._durability is None:
            raise ValueError("this session has no durability configured")
        return await self._submit("checkpoint", None)

    @property
    def durability(self) -> Optional[DurabilityManager]:
        return self._durability

    async def snapshot_to(self, directory: str, wal_seq: int) -> Dict[str, Any]:
        """Write an atomic snapshot of this session's database to ``directory``.

        Unlike :meth:`checkpoint` this needs no durability config: the
        shard tier uses it to checkpoint a worker replica into the
        *router's* durability directory (the router owns the WAL and its
        compaction; the worker only contributes the state bytes).  Runs
        on the worker pool under the session work lock, like
        :meth:`checkpoint`: writing a file can wait on the disk.
        """
        self._check_open()
        return await self._submit("snapshot_to", (directory, wal_seq))

    def stats(self) -> Dict[str, Any]:
        """The per-session cache/plan/request statistics snapshot.

        ``requests`` counts traffic by kind and by the tier that served
        it (``fast_path_hits``, ``inline``, ``pooled``: an admitted
        request counts on exactly one, an in-queue shed on ``pooled``),
        the requests still waiting for their turn (``queue_depth``) and
        the shed ones;
        ``execution_shape_sharing`` derives the executor's
        shape-hit rate — the fraction of SQL executions served by an
        already-compiled shape plan with only a literal rebind.
        """
        with self._stats_lock:
            requests = {
                "by_kind": dict(self._counts),
                "fast_path_hits": self._fast_path_hits,
                "inline": self._inline,
                "pooled": self._pooled,
                "queue_depth": self._waiting,
                "shed": self._admission.stats(),
            }
        snapshot: Dict[str, Any] = {
            "schema": self.schema.name,
            "has_database": self.database is not None,
            "requests": requests,
            "translator": self.translator.stats(),
        }
        if self._durability is not None:
            snapshot["durability"] = self._durability.stats()
        if self._executor is not None:
            snapshot["executor"] = self._executor.cache_stats
            shape = snapshot["executor"]["shape_plans"]
            served = shape["hits"] + shape["misses"] + shape["fallbacks"]
            snapshot["execution_shape_sharing"] = {
                "shared": shape["hits"],
                "compiled": shape["misses"] - shape["deferred"],
                "deferred": shape["deferred"],
                "fallbacks": shape["fallbacks"],
                "hit_rate": round(shape["hits"] / served, 4) if served else None,
            }
        return snapshot

    # ------------------------------------------------------------------
    # Dispatch: inline on an idle session, else one turn and one pool call
    # ------------------------------------------------------------------

    async def _submit(
        self, kind: str, payload: Any, deadline: Deadline = Deadline.NONE
    ) -> Any:
        # Admission control: shed typed (ServiceOverloaded at the depth
        # threshold, DeadlineExceeded for an already-expired budget)
        # instead of accepting work that can only fail later.
        self._admission.admit(self._waiting, deadline)
        # An idle session runs the request here, on the loop: nothing
        # holds or waits for the turn, no pool thread holds the work
        # lock, and the request cannot wait on the disk.
        inline = (
            not self._waiting
            and not self._turn.locked()
            and not self._may_wait_on_disk(kind, payload)
            and self._work_lock.acquire(blocking=False)
        )
        with self._stats_lock:
            self._counts[kind] = self._counts.get(kind, 0) + 1
            if inline:
                self._inline += 1
            else:
                self._pooled += 1
        if inline:
            try:
                return self._run(kind, payload)
            finally:
                self._work_lock.release()
        self._waiting += 1
        try:
            await self._turn.acquire()
        finally:
            self._waiting -= 1
        loop = asyncio.get_running_loop()
        work = None
        try:
            # What ``run_in_executor`` does, keeping the pool's own future:
            # cancelling the client cancels a run that has not started,
            # and only that.
            work = self._service._pool.submit(self._serve, kind, payload, deadline)
            return await asyncio.wrap_future(work, loop=loop)
        finally:
            if work is None or work.done():
                self._turn.release()
            else:
                # The client was cancelled mid-run: its run keeps the turn
                # until it ends, so the next request never runs beside it.
                work.add_done_callback(
                    lambda _: loop.call_soon_threadsafe(self._turn.release)
                )

    def _may_wait_on_disk(self, kind: str, payload: Any) -> bool:
        """Whether the request can block on the disk (log sync, snapshot)."""
        if kind in ("checkpoint", "snapshot_to"):
            return True
        if self._durability is None or kind != "execute" or not is_mutation(payload):
            return False
        quiet = self._durability.appends_before_disk_wait()
        # A statement logs one record per row it writes: at most one for
        # UPDATE and DELETE, one per VALUES tuple for INSERT, and each
        # tuple opens a parenthesis.
        return quiet is not None and quiet < max(1, payload.count("("))

    # ------------------------------------------------------------------
    # Worker side (runs on the service pool)
    # ------------------------------------------------------------------

    def _serve(self, kind: str, payload: Any, deadline: Deadline) -> Any:
        # Returns only once the work lock is free again: a client resumed
        # by its reply may call ``translate`` at once, and its fast path
        # must not find the lock still held by this thread.
        with self._work_lock:
            if deadline.expired:
                # The budget ran out while the request waited its turn:
                # shed it now rather than spend pipeline time on it.
                with self._stats_lock:
                    raise self._admission.shed_expired_in_queue()
            return self._run(kind, payload)

    def _run(self, kind: str, payload: Any) -> Any:
        if kind == "translate":
            return self.translator.translate(payload)
        if kind == "execute":
            return self._shared_executor().execute_sql(payload)
        if kind == "explain":
            return self._shared_explainer().explain(payload)
        if kind == "narrate_database":
            return self._shared_narrator().narrate_database(**payload)
        if kind == "narrate_relation":
            relation_name, kwargs = payload
            return self._shared_narrator().narrate_relation(relation_name, **kwargs)
        if kind == "checkpoint":
            assert self._durability is not None
            return self._durability.checkpoint()
        if kind == "snapshot_to":
            from repro.storage.snapshot import write_snapshot

            directory, wal_seq = payload
            info = write_snapshot(directory, self._require_database(), wal_seq)
            return {"path": str(info.path), "wal_seq": wal_seq}
        raise ValueError(f"unknown request kind {kind!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Shared per-session pipeline objects (created lazily, used under lock)
    # ------------------------------------------------------------------

    def _require_database(self) -> Database:
        if self.database is None:
            raise ValueError(
                "this session was created from a schema only; execution and"
                " narration need a database"
            )
        return self.database

    def _shared_executor(self) -> Executor:
        if self._executor is None:
            self._executor = Executor(self._require_database())
        return self._executor

    def _shared_narrator(self) -> ContentNarrator:
        if self._narrator is None:
            self._narrator = ContentNarrator(self._require_database(), spec=self.spec)
        return self._narrator

    def _shared_explainer(self) -> AnswerExplainer:
        if self._explainer is None:
            # Shares the session executor, so an explained text hits the
            # same shape-plan/scan/subquery caches as ordinary execution.
            self._explainer = AnswerExplainer(
                self._require_database(),
                lexicon=self.translator.lexicon,
                executor=self._shared_executor(),
            )
        return self._explainer

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed or self._service._closed:
            raise ServiceClosed("the narration service has been closed")

    async def aclose(self) -> None:
        """Answer every request already submitted, then refuse new ones.

        ``_closed`` flips first, so later calls raise
        :class:`ServiceClosed`; the turn lock is FIFO, so taking it last
        waits out every request already waiting or running.
        """
        if self._closed:
            return
        self._closed = True
        async with self._turn:
            pass
        if self._durability is not None:
            # Flush any batched WAL appends; the directory stays valid
            # for the next session generation to recover from.
            self._durability.close()


class NarrationService:
    """An asyncio service multiplexing narration sessions over one pool.

    ::

        async with NarrationService(max_workers=4) as service:
            session = service.session(database=movie_database(),
                                      spec_factory=movie_spec)
            translation = await session.translate(sql)
            answer = await session.execute(sql)
            story = await session.narrate_database()
            print(session.stats())

    ``max_workers`` bounds the CPU-bound worker pool shared by every
    session; each session has at most one request on it at a time.
    """

    def __init__(self, max_workers: int = 4) -> None:
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-service"
        )
        self._sessions: Dict[Tuple[int, int], NarrationSession] = {}
        self._sessions_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------

    def session(
        self,
        database: Optional[Database] = None,
        schema: Optional[Schema] = None,
        spec: Optional[NarrationSpec] = None,
        spec_factory=None,
        lexicon: Optional[Lexicon] = None,
        cache_size: Optional[int] = _UNSET,
        phrase_plans: Optional[bool] = None,
        admission: Optional[AdmissionController] = None,
        durability: Optional[DurabilityConfig] = None,
    ) -> NarrationSession:
        """The session for ``(schema, database)``, created on first use.

        Pass a ``database`` for the full surface (translate, execute,
        explain, narrate) or just a ``schema`` for translation only.
        ``spec_factory`` (e.g. ``movie_spec``) builds a narration spec
        from the schema once, when the session is first created.
        ``cache_size`` sizes the translator's exact-text cache (default
        512; ``None`` turns it off).  ``admission`` installs load shedding (an
        :class:`~repro.service.resilience.AdmissionController`; default:
        deadline shedding only, no depth threshold).  ``durability``
        (a :class:`~repro.storage.durability.DurabilityConfig`) makes
        the session persistent: mutations are write-ahead logged before
        applied, checkpoints happen on the configured cadence, and when
        the directory already holds state the session starts from the
        *recovered* database rather than the one passed in.

        Configuration (``spec``/``spec_factory``/``lexicon``/
        ``cache_size``/``phrase_plans``/``admission``/``durability``)
        applies on first creation only; asking for an existing session
        *with* configuration raises rather than silently answering with
        the first caller's settings.
        """
        if self._closed:
            raise ServiceClosed("the narration service has been closed")
        if database is None and schema is None:
            raise ValueError("session() needs a database or a schema")
        resolved_schema = schema if schema is not None else database.schema
        key = (id(resolved_schema), id(database))
        configured = (
            spec is not None
            or spec_factory is not None
            or lexicon is not None
            or cache_size is not _UNSET
            or phrase_plans is not None
            or admission is not None
            or durability is not None
        )
        with self._sessions_lock:
            existing = self._sessions.get(key)
            if existing is not None:
                if configured:
                    raise ValueError(
                        "a session for this (schema, database) pair already"
                        " exists; configuration is applied on first creation"
                        " only — call session() without configuration"
                        " arguments to reuse it"
                    )
                return existing
            if spec is None and spec_factory is not None:
                spec = spec_factory(resolved_schema)
            created = NarrationSession(
                self,
                resolved_schema,
                database,
                spec,
                lexicon,
                cache_size=_DEFAULT_CACHE_SIZE if cache_size is _UNSET else cache_size,
                phrase_plans=phrase_plans,
                admission=admission,
                durability=durability,
            )
            self._sessions[key] = created
            return created

    def stats(self) -> Dict[str, Any]:
        """Aggregate statistics across every session."""
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        return {
            "max_workers": self.max_workers,
            "sessions": [session.stats() for session in sessions],
        }

    # ------------------------------------------------------------------

    async def aclose(self) -> None:
        """Answer every session's submitted requests, then shut the pool down.

        ``_closed`` flips *first*, so no new session can be created and no
        new request accepted while the sessions close and the pool shuts
        down.
        """
        if self._closed:
            return
        self._closed = True
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            await session.aclose()
        self._pool.shutdown(wait=True)

    async def __aenter__(self) -> "NarrationService":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()
