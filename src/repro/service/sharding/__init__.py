"""Multi-process shard tier: shape routing over workers.

Public surface:

* :class:`~repro.service.sharding.router.ShardRouter` — the asyncio
  client API mirroring a ``NarrationService`` session, backed by N
  supervised worker processes, each read going to worker
  ``shape_hash(sql) % workers``;
* :class:`~repro.service.sharding.supervisor.ShardError` /
  :class:`~repro.service.sharding.supervisor.WorkerCrashed` — the typed
  errors shard-tier callers handle.
"""

from repro.service.sharding.protocol import RemoteWorkerError
from repro.service.sharding.router import ShardRouter, ShardRouterConfig
from repro.service.sharding.supervisor import (
    ShardError,
    WorkerCrashed,
    WorkerHandle,
    default_start_method,
)

__all__ = [
    "RemoteWorkerError",
    "ShardError",
    "ShardRouter",
    "ShardRouterConfig",
    "WorkerCrashed",
    "WorkerHandle",
    "default_start_method",
]
