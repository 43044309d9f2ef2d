"""Drive a live serving backend with the loadgen's seeded workload.

The deterministic :func:`~repro.serving.loadgen.run_loadgen` replays its
request stream on a virtual clock; live backends (thread
:class:`~repro.serving.server.AsyncServer`, process
:class:`~repro.serving.pool.server.PoolServer`) are instead *driven*: the
same seeded request mix is pushed through ``submit`` as fast as
backpressure allows. Because engine outputs are a pure function of the
input sequence, the responses' outputs are bitwise identical across all
three backends and any worker count — only wall-clock queueing differs.

:func:`build_pool_server` configures a pool exactly like the loadgen
scheduler (same spec surface, same payload table, per-length memoization),
and :func:`drive_server` is backend-agnostic — both servers share the
``submit``/``Future`` API.
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs.events import NULL_EVENT_LOG, EventLog
from repro.obs.trace import NULL_TRACER, Tracer
from repro.serving.bucketing import BucketPolicy
from repro.serving.lifecycle import LiveServer
from repro.serving.loadgen import LoadgenSpec, make_slo_policy, \
    request_mix, serving_setup
from repro.serving.pool.server import PoolServer
from repro.serving.queue import QueueFullError
from repro.serving.request import Response


def build_pool_server(
    spec: LoadgenSpec,
    n_workers: int,
    tracer: Tracer = NULL_TRACER,
    return_outputs: bool = True,
    max_inflight_per_tenant: int | None = None,
    events: EventLog = NULL_EVENT_LOG,
) -> tuple[PoolServer, dict[int, np.ndarray], BucketPolicy, int]:
    """A pool configured like the loadgen scheduler for ``spec``.

    Returns ``(server, payloads, policy, crossover)``; the server is not
    started. The loadgen payload table is handed to the replicas so
    steady-state tasks ship sequence-length references, not arrays.
    """
    engine, payloads, crossover, policy = serving_setup(spec)
    server = PoolServer(
        engine, policy, n_workers=n_workers, max_batch=spec.max_batch,
        max_wait_us=spec.max_wait_us, max_depth=spec.max_depth,
        tracer=tracer, payload_table=payloads, packed=spec.packed,
        memoize_by_len=True, return_outputs=return_outputs,
        max_inflight_per_tenant=max_inflight_per_tenant,
        events=events, slo=make_slo_policy(spec, engine, policy),
    )
    return server, payloads, policy, crossover


def drive_server(server: LiveServer, spec: LoadgenSpec,
                 payloads: dict[int, np.ndarray],
                 timeout_s: float = 300.0) -> list[Response]:
    """Push the seeded mix through a *started* server; returns responses.

    Blocks briefly and retries on queue-full backpressure; the returned
    list is ordered by rid, i.e. by submission order.
    """
    futures = []
    for x in request_mix(spec, payloads):
        while True:
            try:
                futures.append(server.submit(x))
                break
            except QueueFullError:
                time.sleep(0.001)  # backpressure: retry shortly
    responses = [f.result(timeout=timeout_s) for f in futures]
    return sorted(responses, key=lambda r: r.rid)
