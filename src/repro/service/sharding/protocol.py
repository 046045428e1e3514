"""The shard tier's wire protocol: length-prefixed frames over a socket pair.

The router and its worker processes speak a deliberately tiny protocol —
three tuple shapes and one framing rule — so that every byte of it can be
reasoned about (and fuzzed) in isolation:

Frame
    ``[codec:1][length:4 big-endian][payload:length]``.  ``codec`` names
    the serializer of the frame; ``0`` (pickle) is the only one, and a
    reader refuses any other byte as a damaged frame.

Request (router → worker)
    ``(request_id, kind, payload, seq)`` or
    ``(request_id, kind, payload, seq, budget)``.  ``kind`` is one of the
    session kinds (``translate``/``execute``/``explain``/
    ``narrate_database``/``narrate_relation``) or a control kind
    (:data:`STATS`, :data:`CHECKPOINT`, :data:`PING`, :data:`SHUTDOWN`).
    ``seq`` is ``None`` for ordinary requests; a mutation broadcast
    carries its monotonic sequence number here, which makes the request a
    *barrier* on the worker (see :mod:`.worker`).  ``budget`` (optional,
    seconds — *remaining* budget, never an absolute time, because the
    processes do not share a clock) propagates the router-side deadline
    so the worker's session queue can shed an expired read; barrier
    frames never carry one (a replica that shed a write while another
    applied it would diverge forever), so workers ignore ``budget`` when
    ``seq`` is set.

Response (worker → router)
    ``(request_id, status, payload)`` with ``status`` ``"ok"`` or
    ``"err"`` (payload then being the pickled exception, or a
    :class:`RemoteWorkerError` when the original does not pickle).  The
    first frame a worker ever sends is the hello/ready response for
    request id ``0``.

Results cross the boundary in *wire form*: plain data for translations
(:func:`wire_translation`/:func:`unwire_translation` — the lazy graph
factory is a closure and stays behind), and the objects themselves for
everything else (:class:`~repro.engine.result.QueryResult` rows are plain
dict-backed mappings and pickle cheaply).
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import struct
from typing import Any, Optional, Tuple

from repro.query_nl.translator import QueryTranslation

__all__ = [
    "CHECKPOINT",
    "CODEC_PICKLE",
    "ERR",
    "FrameReader",
    "OK",
    "PING",
    "READY_ID",
    "RemoteWorkerError",
    "SHUTDOWN",
    "STATS",
    "encode_frame",
    "send_frame",
    "unwire_translation",
    "wire_translation",
]

#: Control request kinds (never collide with session kinds).
STATS = "__stats__"
PING = "__ping__"
SHUTDOWN = "__shutdown__"
CHECKPOINT = "__checkpoint__"

#: Response statuses.
OK = "ok"
ERR = "err"

#: The request id of the worker's unsolicited hello/ready frame.
READY_ID = 0

CODEC_PICKLE = 0

_HEADER = struct.Struct("!BI")

#: Read granularity; frames are typically far smaller.
_CHUNK = 1 << 16


class RemoteWorkerError(RuntimeError):
    """A worker-side exception whose original object could not cross the wire."""


def encode_frame(obj: Any) -> bytes:
    """One pickled wire frame for ``obj``."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(CODEC_PICKLE, len(payload)) + payload


def _decode(codec: int, payload: bytes) -> Any:
    if codec == CODEC_PICKLE:
        return pickle.loads(payload)
    raise ValueError(f"unknown frame codec {codec}")


async def send_frame(
    loop: asyncio.AbstractEventLoop,
    sock: socket.socket,
    obj: Any,
    lock: "asyncio.Lock",
) -> None:
    """Serialize and send one frame atomically (the lock orders writers)."""
    frame = encode_frame(obj)
    async with lock:
        await loop.sock_sendall(sock, frame)


class FrameReader:
    """Incremental frame reader over a non-blocking socket.

    ``read()`` returns the next decoded frame, or ``None`` on a clean or
    torn connection end (the shard tier treats both as peer death — the
    supervisor decides what that means).
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, sock: socket.socket) -> None:
        self._loop = loop
        self._sock = sock
        self._buffer = bytearray()

    async def read(self) -> Optional[Any]:
        header = await self._fill(_HEADER.size)
        if header is None:
            return None
        codec, length = _HEADER.unpack(header)
        body = await self._fill(_HEADER.size + length)
        if body is None:
            return None
        payload = bytes(body[_HEADER.size :])
        del self._buffer[: _HEADER.size + length]
        return _decode(codec, payload)

    async def _fill(self, needed: int) -> Optional[bytes]:
        """The buffer's first ``needed`` bytes, reading until they exist."""
        while len(self._buffer) < needed:
            try:
                chunk = await self._loop.sock_recv(self._sock, _CHUNK)
            except (ConnectionError, OSError):
                return None
            if not chunk:
                return None
            self._buffer.extend(chunk)
        return bytes(self._buffer[:needed])


# ---------------------------------------------------------------------------
# Wire forms
# ---------------------------------------------------------------------------


def wire_translation(translation: QueryTranslation) -> Tuple:
    """A translation's textual fields as plain wire data.

    The lazy graph factory is a closure over the worker's builder and
    cannot (and should not) cross the process boundary: the translation
    text is the product, and a router-side caller that needs the graph
    can rebuild it from ``sql``.
    """
    return (
        translation.sql,
        translation.text,
        translation.category,
        translation.concise,
        list(translation.notes),
        translation.rewritten_sql,
    )


def unwire_translation(wire: Tuple) -> QueryTranslation:
    sql, text, category, concise, notes, rewritten_sql = wire
    return QueryTranslation(
        sql=sql,
        text=text,
        category=category,
        concise=concise,
        notes=list(notes),
        rewritten_sql=rewritten_sql,
    )
