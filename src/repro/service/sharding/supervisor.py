"""Worker supervision: spawn, monitor, and respawn shard worker processes.

A :class:`WorkerHandle` owns everything the router knows about one worker:
the OS process, the router-side socket end, the reader task demultiplexing
responses to per-request futures, the mutation watermark
(``applied_seq``), and the respawn counter.  The handle exposes exactly
three behaviours to the router:

* :meth:`request` — send a frame, await its response future (in-flight
  pipelining falls out naturally: many requests can be awaiting at once);
  :meth:`read`, the router's read path, refuses to send while the worker
  is not open for traffic;
* :meth:`wait_applied` — block until this worker has acked mutation
  ``seq`` (the router's read-after-write ordering rule);
* crash handling — when the reader sees the socket die unexpectedly,
  every pending future fails with :class:`WorkerCrashed` (a typed error,
  so callers can distinguish "replica died mid-request" from a real
  pipeline error) and the router's ``on_crash`` callback decides whether
  to respawn.

Respawn itself is deliberately *not* automatic at this layer: the router
owns the mutation log, so it drives the sequence (fresh process → replay
the mutation log tail → reopen for traffic) through :meth:`spawn` and
ordinary requests.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import socket
from typing import Any, Dict, Optional, Tuple

from repro.service.sharding.protocol import (
    ERR,
    READY_ID,
    FrameReader,
    RemoteWorkerError,
    send_frame,
)
from repro.service.sharding.worker import worker_main

__all__ = ["ShardError", "WorkerCrashed", "WorkerHandle", "default_start_method"]


class ShardError(RuntimeError):
    """Base class for shard-tier infrastructure errors."""


class WorkerCrashed(ShardError):
    """The worker serving this request died before responding.

    The request may or may not have been applied on that replica (for
    reads that is irrelevant; mutations are broadcast and re-played on
    respawn from the router's log, so the fleet converges either way).
    Callers should retry once the router has respawned the worker — the
    router's public methods do not retry implicitly, because a timeout
    policy belongs to the application.
    """


def default_start_method() -> str:
    """``fork`` where available (fast, inherits the socket fd), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class WorkerHandle:
    """One supervised worker process and its router-side connection state."""

    def __init__(self, index: int, spec: Dict[str, Any], start_method: str) -> None:
        self.index = index
        self.spec = spec
        self.start_method = start_method
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.pid: Optional[int] = None
        self.applied_seq = 0
        #: WAL seq the incarnation's snapshot restore covers (0 = built
        #: fresh from the factory); the router skips replaying log
        #: entries at or below it and fast-forwards the watermark.
        self.restored_seq = 0
        self.respawns = 0
        self.gave_up = False
        self.ready = asyncio.Event()
        self._sock: Optional[socket.socket] = None
        self._reader_task: Optional["asyncio.Task"] = None
        self._pending: Dict[int, "asyncio.Future"] = {}
        self._next_id = 0
        self._send_lock = asyncio.Lock()
        self._applied_cond = asyncio.Condition()
        self._closing = False
        self._on_crash = None  # set by the router before the first spawn

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def spawn(self, open_for_traffic: bool = True) -> None:
        """Start (or restart) the worker process and await its ready frame.

        A respawn passes ``open_for_traffic=False``: the fresh replica has
        applied *nothing* yet, so the router keeps ``ready`` cleared (and
        the watermark at zero) until the mutation log is replayed, then
        opens the gate itself.

        Raises :class:`ShardError` when the worker reports a build failure
        (e.g. an unresolvable factory path) instead of coming up.
        """
        loop = asyncio.get_running_loop()
        context = multiprocessing.get_context(self.start_method)
        if self._sock is not None:  # a previous incarnation's leftover fd
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        parent_sock, child_sock = socket.socketpair()
        # Under fork the child inherits every open fd — including this
        # very socketpair's *parent* side.  Left open there, a worker
        # orphaned by router death never sees EOF on its own socket (it
        # holds the peer itself) and lives forever; ship the fd number so
        # the child closes it first thing.  Spawn inherits nothing.
        parent_fd = parent_sock.fileno() if self.start_method == "fork" else None
        process = context.Process(
            target=worker_main,
            args=(self.spec, child_sock, self.index, parent_fd),
            name=f"repro-shard-{self.index}",
            daemon=True,
        )
        process.start()
        # The child owns its end now; keeping it open here would mask the
        # EOF that signals worker death.
        child_sock.close()
        parent_sock.setblocking(False)
        self.process = process
        self.pid = process.pid
        self.applied_seq = 0  # a fresh incarnation has applied nothing
        self._sock = parent_sock
        self._next_id = READY_ID  # id 0 is reserved for the ready frame
        ready_future: "asyncio.Future" = loop.create_future()
        self._pending[READY_ID] = ready_future
        self._reader_task = loop.create_task(self._read_responses())
        hello = await ready_future
        self._next_id = READY_ID + 1
        if not isinstance(hello, dict) or "pid" not in hello:
            raise ShardError(f"worker {self.index} sent a malformed ready frame")
        self.restored_seq = hello.get("restored_seq", 0)
        if open_for_traffic:
            self.ready.set()

    async def stop(self, timeout: float = 5.0) -> None:
        """Tear the worker down: cancel the reader, close, join/terminate."""
        self._closing = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            self._sock = None
        process = self.process
        if process is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, process.join, timeout
            )
            if process.exitcode is None:
                process.terminate()
                await asyncio.get_running_loop().run_in_executor(
                    None, process.join, timeout
                )
        self._fail_pending(ShardError("the shard router has been closed"))

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    async def request(
        self,
        kind: str,
        payload: Any,
        seq: Optional[int] = None,
        budget: Optional[float] = None,
    ) -> Any:
        """Send one request frame and await its response.

        Frames from concurrent callers interleave freely (the send lock
        inside :func:`send_frame` keeps each frame atomic); responses are
        matched back by request id, so out-of-order completion on the
        worker is fine.  ``budget`` ships the deadline's *remaining*
        seconds to the worker (never with ``seq`` — barrier frames must
        not be sheddable, see the protocol docs).
        """
        if self._sock is None or self._closing:
            raise WorkerCrashed(f"worker {self.index} is not connected")
        loop = asyncio.get_running_loop()
        self._next_id += 1
        request_id = self._next_id
        future: "asyncio.Future" = loop.create_future()
        self._pending[request_id] = future
        frame = (request_id, kind, payload, seq, None if seq is not None else budget)
        try:
            await send_frame(loop, self._sock, frame, self._send_lock)
        except (ConnectionError, OSError) as error:
            self._pending.pop(request_id, None)
            raise WorkerCrashed(
                f"worker {self.index} connection failed mid-send"
            ) from error
        try:
            result = await future
        except WorkerCrashed:
            # The worker died before acking; whether the mutation landed
            # is unknowable here.  The respawn replay re-delivers this
            # seq from the log and advances the watermark then.
            raise
        except BaseException:
            # The worker *did* process the barrier frame and responded
            # ERR (pipeline rejections are deterministic and apply
            # nothing).  The watermark must still advance — otherwise no
            # worker ever acks this seq and every later read blocks
            # forever in wait_applied.
            if seq is not None:
                await self.mark_applied(seq)
            raise
        if seq is not None:
            await self.mark_applied(seq)
        return result

    async def read(
        self, kind: str, payload: Any, budget: Optional[float] = None
    ) -> Any:
        """Send one routed read, only while this worker is open for traffic.

        The router picks a ready worker, but the pick and the send are
        separate steps: if the worker dies between them, its respawn may
        already own the socket without having replayed the mutation log.
        The ready gate is checked in the same step that sends the frame,
        and a closed gate fails the read with :class:`WorkerCrashed` so
        the router retries it like any crash.
        """
        if not self.ready.is_set():
            raise WorkerCrashed(
                f"worker {self.index} went down before the read was sent"
            )
        return await self.request(kind, payload, budget=budget)

    async def mark_applied(self, seq: int) -> None:
        """Advance the mutation watermark and wake ordering waiters."""
        async with self._applied_cond:
            if seq > self.applied_seq:
                self.applied_seq = seq
            self._applied_cond.notify_all()

    async def wait_applied(self, seq: int) -> None:
        """Block until this worker has acked mutation ``seq``.

        This is the read-after-write barrier: a read routed after a write
        is not even *sent* until the target worker acknowledged that
        write, so no replica can serve the read from a pre-write state.
        Raises :class:`ShardError` instead of waiting forever when the
        worker's respawn budget has been exhausted (:meth:`give_up`).
        """
        if self.applied_seq >= seq:
            return
        async with self._applied_cond:
            while self.applied_seq < seq:
                if self.gave_up:
                    raise ShardError(
                        f"worker {self.index} is permanently down"
                        " (respawn budget exhausted)"
                    )
                await self._applied_cond.wait()

    async def give_up(self) -> None:
        """Mark this worker permanently dead and wake ordering waiters.

        Called by the router when ``max_respawns`` is exhausted; from
        then on requests fail fast and typed instead of stalling on the
        ready gate or the watermark.
        """
        async with self._applied_cond:
            self.gave_up = True
            self._applied_cond.notify_all()

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------

    async def _read_responses(self) -> None:
        assert self._sock is not None
        reader = FrameReader(asyncio.get_running_loop(), self._sock)
        desynced = False
        try:
            while True:
                message = await reader.read()
                if message is None:
                    break
                request_id, status, payload = message
                future = self._pending.pop(request_id, None)
                if future is None or future.done():
                    continue  # cancelled by the caller, or a duplicate
                if status == ERR:
                    error = payload
                    if not isinstance(error, BaseException):  # pragma: no cover
                        error = RemoteWorkerError(repr(payload))
                    future.set_exception(error)
                else:
                    future.set_result(payload)
        except asyncio.CancelledError:
            raise
        except BaseException:
            # A frame that fails to decode (malformed length, an unknown
            # codec, an exception payload whose class does not unpickle
            # router-side, ...) leaves the stream unusable.  Dying
            # silently here would hang every pending future and skip the
            # respawn, so treat it exactly like worker death.
            desynced = True
        if not self._closing:
            self.ready.clear()
            if desynced:
                # The process may well still be alive; drop the broken
                # connection and the process with it so supervision
                # rebuilds a clean incarnation.
                sock, self._sock = self._sock, None
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:  # pragma: no cover - best-effort
                        pass
                self.kill()
            self._fail_pending(
                WorkerCrashed(f"worker {self.index} (pid {self.pid}) died")
            )
            if self._on_crash is not None:
                self._on_crash(self)

    def _fail_pending(self, error: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    # ------------------------------------------------------------------

    def set_crash_callback(self, callback) -> None:
        """``callback(handle)`` runs on the event loop when the worker dies."""
        self._on_crash = callback

    def kill(self) -> None:
        """SIGKILL the worker process (crash drills and tests)."""
        process = self.process
        if process is not None and process.exitcode is None:
            process.kill()

    @property
    def alive(self) -> bool:
        return (
            self.process is not None
            and self.process.exitcode is None
            and self._sock is not None
        )

    @property
    def health(self) -> str:
        """This worker's health state: ``live``/``respawning``/``dead``.

        The router surfaces it per worker in ``stats()``; the state
        machine is documented in ``docs/architecture.md`` ("Failure
        modes and resilience").
        """
        if self.gave_up:
            return "dead"
        if not self.ready.is_set():
            return "respawning"
        return "live"
