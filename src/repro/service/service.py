"""The concurrent narration service: an asyncio front over the compiled pipeline.

The paper's vision is a DBMS that *talks back* interactively — which
means serving translation, narration, execution and empty-answer
explanation to many callers at once, not one synchronous caller.  Every
stage of the pipeline compiles once and runs many times (closure plans,
compiled templates, shape-keyed phrase plans, maintained ranking); this
module composes those compiled subsystems behind one concurrent
interface.

Architecture
------------

:class:`NarrationService` hands out one :class:`NarrationSession` per
(schema, database) pair.  A session owns the shared compiled state for
its schema — the ``builder_for`` query-graph builder, the
``default_lexicon_for`` lexicon and its phrase-plan store, the compiled
template registry inside its spec, one shared
:class:`~repro.engine.executor.Executor` (shape-plan, scan and subquery
caches included) and one :class:`~repro.content.narrator.ContentNarrator`
— and serves every request by one rule:

* **the turn** — every request, once admitted, takes the session's
  turn, a FIFO ``asyncio.Lock``: at once when the turn is free and
  nobody waits for it, otherwise when its turn comes, in arrival order.
  Its deadline is checked then, and an expired one is shed typed.  The
  request then runs on the event-loop thread; a translate whose SQL
  hits the exact-text LRU or a compiled phrase plan is answered there
  without a parse or a graph build.
* **disk waits take a thread** — only a request that can wait on the
  disk runs on a thread of the service's pool, and it holds the turn
  until that run ends, also when its client is cancelled: ``checkpoint``,
  ``snapshot_to``, and a durable session's write whose log appends could
  sync the log (every append under ``fsync="always"``, the one that
  completes a group commit under ``"batch"``) or reach the checkpoint
  cadence.  The session bounds a statement's appends by its VALUES
  tuples.

The rule rests on the GIL: while a thread runs Python the loop runs
almost nothing anyway, so handing CPU work to a thread bought no
concurrency, only latency (about 40 µs a request through a turn and a
pool call, on a 2-vCPU Xeon pinned to one vCPU).  A disk wait releases
the GIL, which is why those keep a thread.  The cost: a run longer than
the interpreter's switch interval (5 ms by default) holds the loop for
its whole length.

On every path a shape's phrase plan and shape plan are compiled on its
second sighting and serve every later request of that shape; an
``explain_empty`` text, and each relaxation of an empty answer, runs
through a shape plan like an ``execute`` text.

Thread-safety contract
----------------------

Python's hot-path caches here were built for single-threaded speed
(plain dicts, ``OrderedDict`` LRUs); the service keeps them sound with
a small set of rules:

* a session's pipeline — translator, executor, narrator, explainer —
  runs only on the event loop, or on the pool thread of the request that
  holds the session's turn.  While such a run holds the turn the loop
  runs none of it: other requests wait for the turn.  So the turn is
  the session's only exclusion.  It guards the request counters too:
  the loop writes them, and a disk run's thread writes only its own
  in-queue shed, while it holds the turn;
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
counters by kind and by path (``inline`` for a request run or shed on
the loop, ``pooled`` for one run on a thread), the number of requests
waiting for their turn, the shed counters, the translator's exact-text
LRU and phrase-plan store statistics (including the unplannable-shape
report), the shared executor's cache statistics, and the derived
execution shape-sharing rate (what fraction of executions were served
by a compiled shape plan).
:meth:`NarrationService.stats` aggregates every session.
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
#: Threads of a service's pool, which runs only requests that can wait on
#: the disk; each session has at most one such run at a time.
_DISK_THREADS = 4
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
        # Requests take their turn in arrival order (asyncio.Lock wakes
        # its waiters first in, first out); the holder is the session's
        # only request in flight.  See the module docstring's
        # thread-safety contract.
        self._turn = asyncio.Lock()
        self._waiting = 0
        self._executor: Optional[Executor] = None
        self._narrator: Optional[ContentNarrator] = None
        self._explainer: Optional[AnswerExplainer] = None
        self._closed = False
        self._counts: Dict[str, int] = {}
        self._inline = 0
        self._pooled = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    async def translate(
        self, sql: str, timeout: Optional[float] = None
    ) -> QueryTranslation:
        """Translate SQL to natural language (Section 3 of the paper).

        Takes the session's turn and runs on the event loop, like every
        other request; an exact-text LRU or phrase-plan hit skips the
        parse and the graph build.  ``timeout`` caps this one request
        (default: unbounded); the deadline is honored at admission and
        again when the turn comes, and expiry raises the typed
        :class:`~repro.service.resilience.DeadlineExceeded`.
        """
        self._check_open()
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
        Runs on a pool thread while it holds the session's turn, so the
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
        on a pool thread while it holds the session's turn, like
        :meth:`checkpoint`: writing a file can wait on the disk.
        """
        self._check_open()
        return await self._submit("snapshot_to", (directory, wal_seq))

    def stats(self) -> Dict[str, Any]:
        """The per-session cache/plan/request statistics snapshot.

        ``requests`` counts traffic by kind and by the path that served
        it (``inline``, ``pooled``: a request counts on exactly one once
        its turn comes, one shed then on ``inline``, and a client
        cancelled before its turn on none), the requests still
        waiting for their turn (``queue_depth``) and the shed ones;
        ``execution_shape_sharing`` derives the executor's
        shape-hit rate — the fraction of SQL executions served by an
        already-compiled shape plan with only a literal rebind.
        """
        requests = {
            "by_kind": dict(self._counts),
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
    # Dispatch: one turn per request, on the loop unless it waits on disk
    # ------------------------------------------------------------------

    async def _submit(
        self, kind: str, payload: Any, deadline: Deadline = Deadline.NONE
    ) -> Any:
        # Admission control: shed typed (ServiceOverloaded at the depth
        # threshold, DeadlineExceeded for an already-expired budget)
        # instead of accepting work that can only fail later.
        self._admission.admit(self._waiting, deadline)
        # A free turn nobody waits for is taken without yielding.
        self._waiting += 1
        try:
            await self._turn.acquire()
        finally:
            self._waiting -= 1
        work = None
        try:
            expired = deadline.expired
            disk = not expired and self._may_wait_on_disk(kind, payload)
            self._counts[kind] = self._counts.get(kind, 0) + 1
            if disk:
                self._pooled += 1
            else:
                self._inline += 1
            if expired:
                # The budget ran out while the request waited its turn:
                # shed it now rather than spend pipeline time on it.
                raise self._admission.shed_expired_in_queue()
            if not disk:
                return self._run(kind, payload)
            # What ``run_in_executor`` does, keeping the pool's own future:
            # cancelling the client cancels a run that has not started,
            # and only that.
            work = self._service._pool.submit(self._serve, kind, payload, deadline)
            return await asyncio.wrap_future(work)
        finally:
            if work is None or work.done():
                self._turn.release()
            else:
                # The client was cancelled mid-run: its run keeps the turn
                # until it ends, so the next request never runs beside it.
                loop = asyncio.get_running_loop()
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
        # A statement logs one record for UPDATE and DELETE and one per
        # VALUES tuple for INSERT; each tuple opens a parenthesis after
        # the first "values" in the text (a column list comes before it).
        head = payload.lower().find("values")
        appends = payload.count("(", head) if head >= 0 else 1
        return quiet is not None and quiet < max(1, appends)

    def _serve(self, kind: str, payload: Any, deadline: Deadline) -> Any:
        # On a pool thread, holding the turn.  Every session shares the
        # pool, so a run can wait for a thread; one whose budget ran out
        # meanwhile is shed unrun.
        if deadline.expired:
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
    # Shared per-session pipeline objects (created lazily, used in turn)
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
    """An asyncio service multiplexing narration sessions.

    ::

        async with NarrationService() as service:
            session = service.session(database=movie_database(),
                                      spec_factory=movie_spec)
            translation = await session.translate(sql)
            answer = await session.execute(sql)
            story = await session.narrate_database()
            print(session.stats())

    Requests run on the event loop; the one thread pool, shared by every
    session, runs only those that can wait on the disk.
    """

    def __init__(self) -> None:
        self._pool = ThreadPoolExecutor(
            max_workers=_DISK_THREADS, thread_name_prefix="repro-service"
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
        return {"sessions": [session.stats() for session in sessions]}

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
