"""Serving layer: async request queue, bucketed dynamic batching, load gen.

The pipeline (ISSUE 1 / the ROADMAP's traffic-scaling track)::

    Request --> RequestQueue --> DynamicBatcher --> EngineWorker pool
    (admit / reject)   (length buckets aligned      (Engine.run_batch,
                        to the OTF crossover)        cost-model service)

One :class:`~repro.serving.lifecycle.RequestLifecycle` runs admission,
batching and settlement (metrics, tracer, flight recorder) for every
backend; the backends differ only in how they execute batches:

- :class:`~repro.serving.scheduler.Scheduler` — deterministic virtual
  time (the ``loadgen`` CLI and the serving benches);
- :class:`~repro.serving.server.AsyncServer` — engine threads behind a
  futures API (the ``serve`` CLI);
- :class:`~repro.serving.pool.PoolServer` — replica processes sharing
  read-only weights behind the same API (``serve``/``loadgen --workers
  N``; see :mod:`repro.serving.pool`).
"""

from repro.serving.batcher import Batch, DynamicBatcher
from repro.serving.bucketing import BucketPolicy, make_policy, model_crossover
from repro.serving.lifecycle import REJECT_DETAILS, RequestLifecycle
from repro.serving.loadgen import (
    LoadgenResult,
    LoadgenSpec,
    build_engine,
    make_slo_policy,
    run_loadgen,
)
from repro.serving.metrics import MetricsRegistry
from repro.serving.pool import (
    AdmissionController,
    PoolServer,
    QuotaExceededError,
    Router,
)
from repro.serving.queue import QueueClosedError, QueueFullError, RequestQueue
from repro.serving.request import Request, Response, ResponseStatus
from repro.serving.scheduler import EngineWorker, Scheduler
from repro.serving.server import AsyncServer

__all__ = [
    "AdmissionController",
    "AsyncServer",
    "Batch",
    "BucketPolicy",
    "DynamicBatcher",
    "EngineWorker",
    "LoadgenResult",
    "LoadgenSpec",
    "MetricsRegistry",
    "PoolServer",
    "QueueClosedError",
    "QueueFullError",
    "QuotaExceededError",
    "REJECT_DETAILS",
    "Request",
    "RequestLifecycle",
    "RequestQueue",
    "Response",
    "ResponseStatus",
    "Router",
    "Scheduler",
    "build_engine",
    "make_policy",
    "make_slo_policy",
    "model_crossover",
    "run_loadgen",
]
