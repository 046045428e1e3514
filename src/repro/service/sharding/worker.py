"""Shard worker main: one process, one ``NarrationService`` replica.

A worker owns a private replica of the (schema, database) pair — built in
this process by the *factory* the router named, never pickled across —
and serves requests from its socket through a private
:class:`~repro.service.service.NarrationService` session, so every
compiled cache (phrase plans, exact-text LRU, shape plans, scan and
subquery caches, compiled templates) is process-local and stays hot for
the shapes the router places on this worker.  A respawned worker starts
with empty caches and admits its shapes again on their second sighting.

Pipelining and the write barrier
--------------------------------

Ordinary requests are *pipelined*: each becomes an asyncio task the
moment its frame is read, and the session runs them in arrival order
exactly as the single-process service does, each to completion on the
worker's event loop, writes and the snapshot for
:data:`~.protocol.CHECKPOINT` included; the next frames wait, in the
socket or the reader's buffer, until it ends.  A
mutation broadcast (``seq is not None``) is a **barrier**: the read loop
first awaits every in-flight task, then runs the mutation alone to
completion and responds, and only then reads the next frame.  Combined
with the router's ordering rule (a read routed after a write waits for
that worker's ack) this makes each replica's
visible history identical to the single-process service's — which is what
keeps shard-tier results byte-identical to the oracle.

Deadlines and faults
--------------------

A request frame may carry a *budget* (seconds of deadline remaining,
router-measured); the worker hands it to its session, which sheds the
request typed if the budget has run out when the request is submitted.
The worker-side deadline starts when the frame is read, so time a frame
spends in the socket behind a run on the loop is not counted against it;
the router's attempt timeout covers the whole round trip.
Barrier frames (mutations) never honor a budget — shedding a write on
one replica while another applies it would diverge the fleet.

When ``REPRO_FAULTS`` is set (see :mod:`repro.service.faults`) the
worker arms a seeded :class:`~repro.service.faults.FaultInjector` scoped
to its index: ordinary requests are counted, and the deterministic
schedule decides which request the process dies at (``os._exit``,
indistinguishable from SIGKILL), which requests stall before running
(the slow replica), and which response frames are dropped, delayed or
sent undecodable.  Control frames, barrier frames and the ready hello
are exempt, so fault schedules can never diverge replica state or make
a respawn unbuildable.

Lifecycle
---------

On start the worker builds its replica, then sends the ready frame
(request id 0) carrying its pid.  :data:`~.protocol.SHUTDOWN` waits out
in-flight work, closes the service gracefully (``NarrationService.aclose``
answers every request already submitted) and exits 0.  A torn socket
means the router died; the worker exits rather than serve nobody.
"""

from __future__ import annotations

import asyncio
import os
import socket
from typing import Any, Dict, Optional, Tuple

from repro.service.faults import CORRUPT, DELAY, DROP, FaultInjector, corrupt_frame
from repro.service.service import NarrationService
from repro.service.sharding.protocol import (
    CHECKPOINT,
    ERR,
    OK,
    PING,
    READY_ID,
    SHUTDOWN,
    STATS,
    FrameReader,
    RemoteWorkerError,
    encode_frame,
    send_frame,
    wire_translation,
)

__all__ = ["resolve_factory", "worker_main"]


def resolve_factory(path: str):
    """Import ``"module:qualname"`` and return the callable it names."""
    module_name, _, qualname = path.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"factory path must be 'module:qualname', got {path!r}")
    module = __import__(module_name, fromlist=["_"])
    target: Any = module
    for part in qualname.split("."):
        target = getattr(target, part)
    if not callable(target):
        raise TypeError(f"{path!r} does not name a callable")
    return target


def worker_main(
    spec: Dict[str, Any],
    sock: socket.socket,
    index: int = 0,
    parent_fd: Optional[int] = None,
) -> None:
    """Process entry point: build the replica, serve until shutdown.

    ``parent_fd`` is the router-side end of this worker's socketpair as
    inherited across ``fork``; it must be closed here, else this worker
    holds its own connection's peer open and an orphaned worker (router
    SIGKILLed, workers not) never reads EOF and never exits.
    """
    if parent_fd is not None:
        try:
            os.close(parent_fd)
        except OSError:  # pragma: no cover - already closed is fine
            pass
    try:
        asyncio.run(_serve_socket(spec, sock, index))
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


async def _serve_socket(
    spec: Dict[str, Any], sock: socket.socket, index: int = 0
) -> None:
    loop = asyncio.get_running_loop()
    sock.setblocking(False)
    write_lock = asyncio.Lock()
    injector = FaultInjector.from_env(f"worker-{index}")
    try:
        service, session, restored_seq = _build_session(spec)
    except BaseException as error:
        # The replica could not be built; tell the router why, then exit.
        await send_frame(loop, sock, (READY_ID, ERR, _wire_error(error)), write_lock)
        return
    await send_frame(
        loop,
        sock,
        (READY_ID, OK, {"pid": os.getpid(), "restored_seq": restored_seq}),
        write_lock,
    )

    reader = FrameReader(loop, sock)
    inflight: set = set()

    async def respond(
        request_id: int, status: str, payload: Any, fault_index: int = 0
    ) -> None:
        if injector is not None and fault_index:
            fate, seconds = injector.response_fate(fault_index)
            if fate == DROP:
                return  # the router's per-attempt timeout covers this
            if fate == DELAY:
                await asyncio.sleep(seconds)
            elif fate == CORRUPT:
                frame = corrupt_frame(encode_frame((request_id, status, payload)))
                async with write_lock:
                    await loop.sock_sendall(sock, frame)
                return
        await send_frame(loop, sock, (request_id, status, payload), write_lock)

    async def handle(
        request_id: int,
        kind: str,
        payload: Any,
        budget: Optional[float] = None,
        fault_index: int = 0,
    ) -> None:
        if injector is not None and fault_index:
            stall = injector.stall_for(fault_index)
            if stall:  # the slow replica: the request runs, late
                await asyncio.sleep(stall)
        try:
            result = await _run(session, kind, payload, budget)
        except BaseException as error:
            await respond(request_id, ERR, _wire_error(error), fault_index)
        else:
            await respond(request_id, OK, result, fault_index)

    shutdown_id: Optional[int] = None
    ordinary = 0  # fault-injection event counter (ordinary requests only)
    while True:
        message = await reader.read()
        if message is None:  # router died or closed the socket
            break
        request_id, kind, payload, seq = message[:4]
        budget = message[4] if len(message) > 4 else None
        if kind == SHUTDOWN:
            shutdown_id = request_id
            break
        if seq is not None:
            # Mutation barrier: everything in flight completes first, the
            # mutation runs alone, and no later frame is even read until
            # it has been acked.  Barriers never honor a budget (a
            # deadline shed must not be able to diverge replicas) and are
            # exempt from fault injection.
            if inflight:
                await asyncio.gather(*inflight, return_exceptions=True)
                inflight.clear()
            await handle(request_id, kind, payload)
            continue
        fault_index = 0
        if injector is not None and not kind.startswith("__"):
            ordinary += 1
            fault_index = ordinary
            if injector.crash_due(fault_index):
                injector.crash()  # os._exit: the deterministic SIGKILL
        task = loop.create_task(
            handle(request_id, kind, payload, budget, fault_index)
        )
        inflight.add(task)
        task.add_done_callback(inflight.discard)

    if inflight:
        await asyncio.gather(*inflight, return_exceptions=True)
    await service.aclose()
    if shutdown_id is not None:
        await respond(shutdown_id, OK, {"pid": os.getpid()})


def _build_session(spec: Dict[str, Any]) -> Tuple[NarrationService, Any, int]:
    """Build this worker's replica; returns (service, session, restored_seq).

    With a ``durability_dir`` in the spec the factory-built database is
    fast-forwarded from the newest snapshot there — the router then only
    replays the WAL records *after* the snapshot's seq instead of the
    whole history.  The worker never opens the WAL itself: the router
    owns the log (one writer), replicas only contribute snapshots on
    request (:data:`~.protocol.CHECKPOINT`).
    """
    database = resolve_factory(spec["database_factory"])()
    storage = spec.get("storage")
    if storage is not None and storage != database.storage_config:
        # The router's StorageConfig travels in the spec; rebuild the
        # factory's database under it so every replica runs the same
        # engines (rowids and insertion order carry over).
        database = database.with_storage(storage)
    restored_seq = 0
    durability_dir = spec.get("durability_dir")
    if durability_dir:
        from repro.storage.snapshot import latest_snapshot, load_snapshot, restore_into

        info = latest_snapshot(durability_dir)
        if info is not None:
            state = load_snapshot(info.path)
            restore_into(database, state)
            restored_seq = state["wal_seq"]
    spec_factory_path = spec.get("spec_factory")
    service = NarrationService()
    session = service.session(
        database=database,
        spec_factory=(
            resolve_factory(spec_factory_path) if spec_factory_path else None
        ),
        phrase_plans=spec.get("phrase_plans"),
    )
    return service, session, restored_seq


async def _run(
    session, kind: str, payload: Any, budget: Optional[float] = None
) -> Any:
    if kind == "translate":
        return wire_translation(await session.translate(payload, timeout=budget))
    if kind == "execute":
        return await session.execute(payload, timeout=budget)
    if kind == "explain":
        return await session.explain_empty(payload, timeout=budget)
    if kind == "narrate_database":
        return await session.narrate_database(timeout=budget, **payload)
    if kind == "narrate_relation":
        relation_name, kwargs = payload
        return await session.narrate_relation(relation_name, timeout=budget, **kwargs)
    if kind == STATS:
        return {"pid": os.getpid(), "session": session.stats()}
    if kind == CHECKPOINT:
        directory, wal_seq = payload
        return await session.snapshot_to(directory, wal_seq)
    if kind == PING:
        return {"pid": os.getpid()}
    raise ValueError(f"unknown request kind {kind!r}")


def _wire_error(error: BaseException) -> BaseException:
    """``error`` itself when it pickles, else a faithful stand-in."""
    import pickle

    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return RemoteWorkerError(f"{type(error).__name__}: {error}")
