"""Concurrent narration service (asyncio front end over the compiled pipeline).

See :mod:`repro.service.service` for the architecture and the
thread-safety contract, and ``docs/performance.md`` ("Concurrent
service") for the design discussion.
"""

from repro.service.faults import FaultInjector, FaultPlan, parse_faults
from repro.service.resilience import (
    AdmissionController,
    CircuitBreaker,
    CircuitOpen,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
)
from repro.service.service import NarrationService, NarrationSession, ServiceClosed
from repro.service.sharding import (
    ShardError,
    ShardRouter,
    ShardRouterConfig,
    WorkerCrashed,
)
from repro.storage.durability import DurabilityConfig, DurabilityManager

__all__ = [
    "AdmissionController",
    "DurabilityConfig",
    "DurabilityManager",
    "CircuitBreaker",
    "CircuitOpen",
    "Deadline",
    "DeadlineExceeded",
    "FaultInjector",
    "FaultPlan",
    "NarrationService",
    "NarrationSession",
    "RetryPolicy",
    "ServiceClosed",
    "ShardError",
    "ShardRouter",
    "ShardRouterConfig",
    "WorkerCrashed",
    "parse_faults",
]
