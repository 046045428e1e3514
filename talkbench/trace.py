"""Spans around each layer's public entry points, installed from outside.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
the entry points named in :data:`SYNC_POINTS`, and a few storage and
shard-tier methods, with wrappers that record a :class:`Span` (name, start, end, parent, request
id) into the process's :class:`Tracer` while it is recording; spans stay
in memory and are written out once, when the run ends.

Parent links follow a context variable, so they are exact on one thread
and inside one asyncio task.  Work the service hands to its thread pool
starts with an empty context; such a span's parent is the client call
that is waiting for it (:attr:`Tracer.call`), which is exact with one
client.  In shard workers that serve two requests at once it can name the
other request; per-call timings are unaffected.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import importlib
import itertools
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.service.sharding.protocol import STATS

_now = time.perf_counter

#: The innermost open span of the running thread or task.
_CURRENT: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "talkbench_span", default=None
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "rid", "attrs")

    def __init__(self, id: int, name: str, parent: Optional["Span"], rid: Optional[int]):
        self.id = id
        self.name = name
        self.start = _now()
        self.end: Optional[float] = None
        self.parent = parent
        self.rid = rid
        self.attrs: Optional[Dict[str, Any]] = None

    def record(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent.id if self.parent is not None else None,
            "rid": self.rid,
            "attrs": self.attrs,
        }


class Tracer:
    """One process's span store, counters and GC pause clock."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.call: Optional[Span] = None
        self._ids = itertools.count(1)
        self.gc_pauses: List[Tuple[float, float]] = []
        #: In a shard worker: the file whose presence, checked at each
        #: stats request, turns recording on from the next request.
        self.switch: Optional[str] = None
        self._armed = False
        self._gc_started: Optional[float] = None

    def reset(self) -> None:
        self.spans = []
        self.counters = {}
        self.call = None
        self.gc_pauses = []

    def start(self, name: str, rid: Optional[int] = None) -> Span:
        parent = _CURRENT.get()
        if parent is None or parent.end is not None:
            # A pool thread, or a task whose context predates this request.
            parent = self.call if self.call is not None and self.call.end is None else None
        if rid is None and parent is not None:
            rid = parent.rid
        span = Span(next(self._ids), name, parent, rid)
        self.spans.append(span)
        return span

    def count(self, name: str, amount: float = 1) -> None:
        if self.recording:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- cyclic GC pauses ------------------------------------------------

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if not self.recording:
            return
        if phase == "start":
            self._gc_started = _now()
        elif self._gc_started is not None:
            self.gc_pauses.append((self._gc_started, _now()))
            self._gc_started = None

    def watch_gc(self) -> None:
        if self._on_gc not in gc.callbacks:
            gc.callbacks.append(self._on_gc)


#: The tracer of this process; the installed wrappers report to it.
TRACER = Tracer()


def open_span(name: str, rid: Optional[int] = None):
    """Open a span and make it current; returns the token for :func:`close_span`."""
    span = TRACER.start(name, rid)
    return span, _CURRENT.set(span)


def close_span(span: Span, token) -> None:
    span.end = _now()
    _CURRENT.reset(token)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _sync(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not TRACER.recording:
            return fn(*args, **kwargs)
        span = TRACER.start(name)
        token = _CURRENT.set(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = _now()
            _CURRENT.reset(token)

    traced.__talkbench_original__ = fn
    return traced


def _full_scan(fn: Callable) -> Callable:
    """``rows``/``rows_with_ids``: generators; the span covers their consumption."""

    @functools.wraps(fn)
    def traced(self):
        if not TRACER.recording:
            yield from fn(self)
            return
        TRACER.count("storage.full_scans")
        TRACER.count("storage.rows_examined", self.row_count)
        span = TRACER.start("storage.full_scan")
        try:
            yield from fn(self)
        finally:
            span.end = _now()

    traced.__talkbench_original__ = fn
    return traced


def _index_lookup(fn: Callable) -> Callable:
    """``HashIndex.lookup``: counted, not spanned (it is a dict probe)."""

    @functools.wraps(fn)
    def traced(self, key):
        rowids = fn(self, key)
        if TRACER.recording:
            TRACER.count("storage.index_lookups")
            TRACER.count("storage.rows_examined", len(rowids))
        return rowids

    traced.__talkbench_original__ = fn
    return traced


def _dml(name: str, fn: Callable) -> Callable:
    """``Database`` DML: a span plus the bytes of row values it writes."""

    @functools.wraps(fn)
    def traced(self, table_name, *args, **kwargs):
        if not TRACER.recording:
            return fn(self, table_name, *args, **kwargs)
        if name == "storage.insert":
            written = _value_bytes(args[0] if args else kwargs["values"])
        elif name == "storage.update_where":
            written = _value_bytes(args[1] if len(args) > 1 else kwargs["changes"])
        else:
            written = 0
        span = TRACER.start(name)
        token = _CURRENT.set(span)
        try:
            affected = fn(self, table_name, *args, **kwargs)
        finally:
            span.end = _now()
            _CURRENT.reset(token)
        rows = 1 if name == "storage.insert" else affected
        TRACER.count("storage.user_bytes", written * rows)
        return affected

    traced.__talkbench_original__ = fn
    return traced


def _value_bytes(values) -> int:
    return sum(len(str(value).encode()) for value in dict(values).values() if value is not None)


def _wal_append(fn: Callable) -> Callable:
    """``WriteAheadLog.append``: a span plus the bytes the log file grew by."""

    @functools.wraps(fn)
    def traced(self, payload, seq=None):
        if not TRACER.recording:
            return fn(self, payload, seq)
        before = os.path.getsize(self.path)
        span = TRACER.start("storage.wal_append")
        try:
            return fn(self, payload, seq)
        finally:
            span.end = _now()
            TRACER.count("storage.bytes_written", os.path.getsize(self.path) - before)

    traced.__talkbench_original__ = fn
    return traced


def _write_snapshot(fn: Callable) -> Callable:
    """``write_snapshot``: counts the snapshot file's bytes."""

    @functools.wraps(fn)
    def traced(directory, database, wal_seq, *args, **kwargs):
        info = fn(directory, database, wal_seq, *args, **kwargs)
        if TRACER.recording:
            TRACER.count("storage.bytes_written", info.path.stat().st_size)
        return info

    traced.__talkbench_original__ = fn
    return traced


def _encode(fn: Callable) -> Callable:
    """``encode_frame``: codec time, frame bytes, and the wire request id."""

    @functools.wraps(fn)
    def traced(obj):
        if not TRACER.recording:
            return fn(obj)
        started = _now()
        frame = fn(obj)
        TRACER.count("sharding.codec_seconds", _now() - started)
        TRACER.count("sharding.frame_bytes", len(frame))
        owner = _CURRENT.get()
        if owner is not None and owner.name == "sharding.request" and isinstance(obj, tuple):
            owner.attrs["wire_id"] = obj[0]
        return frame

    traced.__talkbench_original__ = fn
    return traced


def _decode(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(codec, payload):
        if not TRACER.recording:
            return fn(codec, payload)
        started = _now()
        try:
            return fn(codec, payload)
        finally:
            TRACER.count("sharding.codec_seconds", _now() - started)

    traced.__talkbench_original__ = fn
    return traced


def _handle_request(fn: Callable) -> Callable:
    """``WorkerHandle.request`` (router side): one span per worker round trip."""

    @functools.wraps(fn)
    async def traced(self, kind, payload, seq=None, budget=None):
        if not TRACER.recording:
            return await fn(self, kind, payload, seq, budget)
        span = TRACER.start("sharding.request")
        span.attrs = {"pid": self.pid, "kind": kind}
        token = _CURRENT.set(span)
        try:
            return await fn(self, kind, payload, seq, budget)
        finally:
            span.end = _now()
            _CURRENT.reset(token)

    traced.__talkbench_original__ = fn
    return traced


def _frame_read(fn: Callable) -> Callable:
    """``FrameReader.read`` (worker side): the recording switch and the wire id.

    A stats request stops recording and reads :attr:`Tracer.switch`; the
    next other request starts recording if the switch was on, so the
    stats exchange itself is never recorded.  The worker reads a frame
    and then creates the task that serves it, so the wire id set here is
    copied into that task's context.
    """

    @functools.wraps(fn)
    async def traced(self):
        message = await fn(self)
        if isinstance(message, tuple) and len(message) >= 4:
            if message[1] == STATS:
                TRACER.recording = False
                TRACER._armed = TRACER.switch is not None and os.path.exists(TRACER.switch)
            elif TRACER._armed:
                TRACER.recording = True
            _WIRE_ID.set(message[0])
        return message

    traced.__talkbench_original__ = fn
    return traced


_WIRE_ID: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "talkbench_wire_id", default=None
)


def _worker_session(name: str, fn: Callable) -> Callable:
    """``NarrationSession`` methods inside a shard worker."""

    @functools.wraps(fn)
    async def traced(*args, **kwargs):
        if not TRACER.recording:
            return await fn(*args, **kwargs)
        span = TRACER.start(name)
        span.attrs = {"wire_id": _WIRE_ID.get()}
        token = _CURRENT.set(span)
        TRACER.call = span
        try:
            return await fn(*args, **kwargs)
        finally:
            span.end = _now()
            _CURRENT.reset(token)

    traced.__talkbench_original__ = fn
    return traced


# (module, attribute path, span name) of every synchronous entry point.
# Functions imported by name into other modules are patched at each
# import site, so callers that bound the name at import time are covered.
SYNC_POINTS = [
    ("repro.sql.parser", "parse_sql", "sql.parse"),
    ("repro.query_nl.translator", "parse_sql", "sql.parse"),
    ("repro.engine.executor", "parse_sql", "sql.parse"),
    ("repro.engine.executor", "sql_shape", "sql.shape"),
    ("repro.query_nl.plans", "sql_shape", "sql.shape"),
    ("repro.query_nl.translator", "shape_key", "sql.shape"),
    ("repro.query_nl.plans", "batch_key", "sql.shape"),
    ("repro.service.service", "batch_key", "sql.shape"),
    ("repro.querygraph.builder", "QueryGraphBuilder.build", "querygraph.build"),
    ("repro.query_nl.translator", "QueryTranslator.translate", "query_nl.translate"),
    ("repro.query_nl.translator", "QueryTranslator.try_fast_translate", "query_nl.fast_translate"),
    ("repro.query_nl.empty_answer", "AnswerExplainer.explain", "content.explain"),
    ("repro.engine.executor", "Executor.execute_sql", "engine.execute_sql"),
    ("repro.engine.plan", "Planner.plan", "engine.plan"),
    ("repro.content.narrator", "ContentNarrator.narrate_relation", "content.narrate_relation"),
    ("repro.content.narrator", "ContentNarrator.narrate_database", "content.narrate_database"),
    ("repro.content.narrator", "rank_tuples", "content.rank"),
    ("repro.storage.durability", "DurabilityManager.checkpoint", "storage.checkpoint"),
]

#: Names whose spans are a pipeline call the service runs for a client.
PIPELINE = frozenset(
    {
        "query_nl.translate",
        "engine.execute_sql",
        "content.explain",
        "content.narrate_relation",
        "content.narrate_database",
    }
)

WORKER_SESSION_METHODS = (
    "translate",
    "execute",
    "explain_empty",
    "narrate_database",
    "narrate_relation",
)


def _resolve(module_name: str, path: str):
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _patch(owner: Any, attribute: str, make: Callable[[Callable], Callable]) -> None:
    current = getattr(owner, attribute)
    if hasattr(current, "__talkbench_original__"):
        return  # already installed (a forked worker inherits the parent's)
    setattr(owner, attribute, make(current))


def install(worker: bool = False) -> None:
    """Wrap every traced entry point in this process (idempotent)."""
    originals: Dict[int, Callable] = {}
    for module_name, path, name in SYNC_POINTS:
        owner, attribute = _resolve(module_name, path)
        current = getattr(owner, attribute)
        if hasattr(current, "__talkbench_original__"):
            continue
        # One wrapper per original function, shared by every import site.
        wrapped = originals.get(id(current))
        if wrapped is None:
            wrapped = _sync(name, current)
            originals[id(current)] = wrapped
        setattr(owner, attribute, wrapped)
    from repro.service.sharding import protocol, supervisor
    from repro.storage import database, durability, index, wal
    from repro.storage.engine import base, rows

    for engine in (base.BaseTableStorage, rows.RowStorage):
        for method in ("rows", "rows_with_ids"):
            if method in vars(engine):
                _patch(engine, method, _full_scan)
    _patch(index.HashIndex, "lookup", _index_lookup)
    for method, name in (
        ("insert", "storage.insert"),
        ("update_where", "storage.update_where"),
        ("delete_where", "storage.delete_where"),
    ):
        _patch(database.Database, method, functools.partial(_dml, name))
    _patch(wal.WriteAheadLog, "append", _wal_append)
    _patch(durability, "write_snapshot", _write_snapshot)
    _patch(protocol, "encode_frame", _encode)
    _patch(protocol, "_decode", _decode)
    _patch(supervisor.WorkerHandle, "request", _handle_request)
    if worker:
        from repro.service import service

        _patch(protocol.FrameReader, "read", _frame_read)
        for method in WORKER_SESSION_METHODS:
            _patch(
                service.NarrationSession,
                method,
                functools.partial(_worker_session, f"worker.{method}"),
            )
    TRACER.watch_gc()
