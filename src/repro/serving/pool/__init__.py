"""Multi-process replica pool: shared weights, load-aware routing.

The pool is the serving stack's horizontal scale-out backend: N replica
processes attach one read-only shared-memory weight segment
(:mod:`repro.runtime.shm`), each builds a private engine + plan cache,
and a load-aware :class:`Router` spreads length-bucketed batches across
them with outstanding-cost accounting, work stealing, and per-tenant
admission quotas. :class:`PoolServer` exposes the whole thing behind the
:class:`~repro.serving.server.AsyncServer` interface, so every driver
(CLI ``serve``/``loadgen``, benches, tests) picks a backend with one
flag.
"""

from repro.serving.loadgen import request_mix
from repro.serving.pool.driver import build_pool_server, drive_server
from repro.serving.pool.router import (
    AdmissionController,
    QuotaExceededError,
    ReplicaGoneError,
    Router,
)
from repro.serving.pool.server import PoolServer
from repro.serving.pool.worker import (
    STOP,
    BatchResult,
    BatchTask,
    WorkerGoodbye,
    WorkerHello,
    replica_main,
)

__all__ = [
    "AdmissionController",
    "BatchResult",
    "BatchTask",
    "PoolServer",
    "QuotaExceededError",
    "ReplicaGoneError",
    "Router",
    "STOP",
    "WorkerGoodbye",
    "WorkerHello",
    "build_pool_server",
    "drive_server",
    "replica_main",
    "request_mix",
]
