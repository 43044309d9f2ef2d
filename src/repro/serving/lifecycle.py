"""The request lifecycle every serving backend shares.

:class:`RequestLifecycle` is the only code in :mod:`repro.serving` that
stamps and validates a :class:`Request`, admits it into the bounded
:class:`RequestQueue`, hands formed batches out, records dispatches and
settles requests into :class:`Response` objects — feeding the metrics
registry, the tracer and the flight recorder at each step. The backends
only execute batches: :class:`~repro.serving.scheduler.Scheduler` on a
virtual clock, :class:`~repro.serving.server.AsyncServer` on engine
threads, :class:`~repro.serving.pool.server.PoolServer` on replica
processes.

Every admitted rid reaches exactly one ``complete`` or ``reject`` event;
a reject names one of :data:`REJECT_DETAILS`. A payload that cannot be
served fails alone, at admission. One :class:`threading.Condition`
guards the queue, the registry, the tracer and the waiter table (the
virtual-time path takes it uncontended); waiters run after it is released.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Sequence

import numpy as np

from repro.obs.events import NULL_EVENT_LOG, EventLog
from repro.obs.prometheus import prometheus_text
from repro.obs.slo import SloPolicy
from repro.obs.trace import NULL_TRACER, Tracer, engine_spans
from repro.runtime.engine import Engine, EngineResult
from repro.serving.batcher import Batch, DynamicBatcher
from repro.serving.metrics import MetricsRegistry
from repro.serving.queue import QueueFullError, RequestQueue
from repro.serving.request import Request, Response, ResponseStatus

#: Why a request was rejected (the ``detail`` of its ``reject`` event).
REJECT_DETAILS = (
    "queue_full",     # admission control: the queue is at max depth
    "invalid_input",  # not (s, d_model), length out of range, or non-finite
    "shutdown_drop",  # the server stopped, or never started, before serving
    "batch_error",    # its batch raised during execution
    "shed",           # no surviving replica could run it
)

#: The exception a live ``submit`` raises for each admission-time reject.
_SUBMIT_ERRORS: dict[str, type[Exception]] = {
    "queue_full": QueueFullError,
    "invalid_input": ValueError,
    "shutdown_drop": RuntimeError,
}

#: Receives a request's terminal :class:`Response`, exactly once.
Waiter = Callable[[Response], None]


def trace_batch(tracer: Tracer, batch: Batch, engine_name: str, w_idx: int,
                start_us: float, finish_us: float,
                results: Sequence[EngineResult]) -> None:
    """Record one executed batch into ``tracer``.

    A ``batch`` span on the worker's track and, per member, a ``request``
    span with ``queue_wait``/``service`` phases; member timelines are laid
    serially inside the batch window, as the single-stream cost model
    spends the service time.
    """
    tracer.span(f"batch{batch.batch_id}", "batch", start_us, finish_us, {
        "batch_id": batch.batch_id, "bucket": batch.bucket,
        "size": batch.size, "worker": w_idx, "engine": engine_name,
    })
    cursor = start_us
    for req, res in zip(batch.requests, results):
        regimes = sorted(set(res.choices.values()))
        sp = tracer.span(f"request{req.rid}", "request", req.arrival_us,
                         finish_us, {
                             "rid": req.rid, "seq_len": req.seq_len,
                             "bucket": batch.bucket,
                             "batch_id": batch.batch_id,
                             "batch_size": batch.size,
                             "engine": engine_name, "client": req.client,
                             "otf_regime": "/".join(regimes),
                             "status": "ok",
                         })
        sp.child("queue_wait", "phase", req.arrival_us, start_us)
        service = sp.child("service", "phase", start_us, finish_us,
                           {"batch_id": batch.batch_id})
        cursor = engine_spans(res.timeline, service, res.choices, cursor)


class RequestLifecycle:
    """Admission, batch hand-off and settlement for one serving backend.

    ``engine`` supplies ``d_model`` for validation and the trace label;
    the backend owns the engines that execute.
    """

    def __init__(self, engine: Engine, batcher: DynamicBatcher,
                 max_depth: int = 64, tracer: Tracer = NULL_TRACER,
                 events: EventLog = NULL_EVENT_LOG,
                 slo: SloPolicy | None = None) -> None:
        self.engine_name = engine.name
        self.d_model = engine.weights.config.d_model
        self.batcher = batcher
        self.tracer = tracer
        self.events = events
        self.slo = slo
        self.metrics = MetricsRegistry()
        self.queue = RequestQueue(max_depth=max_depth)
        self.running = False
        self._cond = threading.Condition()
        self._waiters: dict[int, Waiter] = {}
        self._next_rid = 0
        self._t0 = 0.0

    # ---- live clock and run state -----------------------------------------

    def start(self) -> None:
        """Accept live submissions; the server clock starts at 0."""
        with self._cond:
            if self.running:
                raise RuntimeError("server already started")
            self.running = True
            self._t0 = time.monotonic()  # etlint: disable=ET301 timing boundary

    def stop(self, drain: bool = True) -> list[Request]:
        """Stop accepting; blocked :meth:`next_batch` callers flush and end.

        Without ``drain`` the queue is emptied first and its requests are
        returned for the caller to reject.
        """
        with self._cond:
            self.running = False
            dropped = [] if drain else self.queue.drain()
            self._cond.notify_all()
        return dropped

    def now_us(self) -> float:
        """Microseconds on the live server clock."""
        return (time.monotonic() - self._t0) * 1e6  # etlint: disable=ET301 timing boundary

    @property
    def traced(self) -> bool:
        """Whether executors should ship kernel records for the tracer."""
        return self.tracer.enabled

    # ---- admission --------------------------------------------------------

    def problem(self, x: np.ndarray) -> str | None:
        """Why payload ``x`` cannot be served, or ``None`` when it can."""
        if x.ndim != 2 or x.shape[1] != self.d_model:
            return f"expected (s, {self.d_model}) input, got {x.shape}"
        try:
            self.batcher.policy.bucket_of(int(x.shape[0]))
        except ValueError as exc:
            return str(exc)
        if not np.isfinite(x).all():
            return "input has non-finite values"
        return None

    def submit(self, x: np.ndarray, waiter: Waiter, priority: int = 0,
               mask: np.ndarray | None = None, client: int = 0) -> None:
        """Admit one live request; ``waiter`` gets its :class:`Response`.

        A rejection reaches ``waiter`` too, then raises ``ValueError``
        (bad payload), :class:`QueueFullError` or ``RuntimeError`` (not
        running).
        """
        req = Request(rid=-1, x=np.asarray(x, dtype=np.float64),
                      priority=priority, client=client, mask=mask)
        resp = self.admit(req, waiter, stamp=True)
        if resp is not None:
            raise _SUBMIT_ERRORS[resp.detail](resp.error)

    def admit(self, req: Request, waiter: Waiter,
              stamp: bool = False) -> Response | None:
        """Admit ``req``; returns its rejection if it was turned away.

        ``stamp`` (live backends) assigns rid, arrival and SLO deadline
        under the lock, so rid order is arrival order.
        """
        problem = self.problem(req.x)
        with self._cond:
            if stamp:
                req.rid = self._next_rid
                self._next_rid += 1
                req.arrival_us = self.now_us()
                if self.slo is not None and problem is None:
                    req.deadline_us = self.slo.deadline_us(req.seq_len,
                                                           req.arrival_us)
            self.metrics.observe_queue_depth(self.queue.depth)
            if self.tracer.enabled:
                self.tracer.counter("queue_depth", req.arrival_us,
                                    self.queue.depth)
            if self.events.enabled:
                self.events.emit("admit", req.arrival_us, rid=req.rid,
                                 seq_len=req.seq_len, tenant=req.client,
                                 deadline_us=req.deadline_us)
            self._waiters[req.rid] = waiter
            if problem is not None:
                detail, error = "invalid_input", problem
            elif stamp and not self.running:
                detail, error = "shutdown_drop", "server is not running"
            else:
                try:
                    self.queue.put(req)
                except QueueFullError as exc:
                    detail, error = "queue_full", str(exc)
                else:
                    if self.events.enabled:
                        self.events.emit("enqueue", req.arrival_us,
                                         rid=req.rid, seq_len=req.seq_len)
                    self._cond.notify()
                    return None
        return self.reject([req], req.arrival_us, detail, error)[0]

    # ---- batching hand-off ------------------------------------------------

    def _form(self, now_us: float, flush: bool) -> Batch | None:
        """Pop the most urgent ready batch (caller holds the lock)."""
        batch = self.batcher.pop_batch(self.queue, now_us, flush=flush)
        if batch is not None and self.events.enabled:
            self.events.emit("batch_formed", now_us, batch_id=batch.batch_id,
                             bucket=batch.bucket, size=batch.size)
        return batch

    def pop_batch(self, now_us: float, flush: bool) -> Batch | None:
        """The most urgent ready batch at ``now_us`` (virtual-time path)."""
        with self._cond:
            return self._form(now_us, flush)

    def next_batch(self) -> Batch | None:
        """Block for the next batch; ``None`` once stopped and drained
        (after :meth:`stop` every bucket flushes at once)."""
        with self._cond:
            while True:
                now = self.now_us()
                batch = self._form(now, flush=not self.running)
                if batch is not None or not self.running:
                    return batch
                deadline = self.batcher.next_deadline_us(self.queue)
                self._cond.wait(None if deadline is None
                                else max(1e-4, (deadline - now) / 1e6))

    def dispatch(self, batch: Batch, ts_us: float, replica: int) -> None:
        """Record ``batch`` handed to worker/replica ``replica``."""
        with self._cond:
            self.metrics.observe_batch(batch.size, batch.bucket, ts_us)
            if self.events.enabled:
                self.events.emit("dispatch", ts_us, batch_id=batch.batch_id,
                                 bucket=batch.bucket, size=batch.size,
                                 replica=replica)

    # ---- settlement -------------------------------------------------------

    def complete(self, batch: Batch, replica: int, start_us: float,
                 service_us: float, outputs: Sequence[np.ndarray] | None,
                 traced: Sequence[EngineResult] | None = None) -> None:
        """Settle an executed batch's members as served. ``outputs`` and
        ``traced`` (engine results for the tracer) may be ``None`` when the
        executor did not collect them."""
        finish = start_us + service_us
        settled = []
        with self._cond:
            if traced is not None and self.tracer.enabled:
                trace_batch(self.tracer, batch, self.engine_name, replica,
                            start_us, finish, traced)
            for req, output in zip(batch.requests,
                                   outputs or [None] * batch.size):
                resp = Response(
                    rid=req.rid, status=ResponseStatus.OK,
                    arrival_us=req.arrival_us, start_us=start_us,
                    finish_us=finish, service_us=service_us,
                    batch_id=batch.batch_id, batch_size=batch.size,
                    bucket=batch.bucket, seq_len=req.seq_len,
                    client=req.client, replica=replica,
                    deadline_us=req.deadline_us, output=output)
                self.metrics.observe_response(resp)
                if self.events.enabled:
                    self.events.emit("complete", finish, rid=req.rid,
                                     batch_id=batch.batch_id,
                                     bucket=batch.bucket,
                                     seq_len=req.seq_len, tenant=req.client,
                                     replica=replica,
                                     deadline_us=req.deadline_us,
                                     slo_met=resp.slo_met)
                settled.append((self._waiters.pop(req.rid, None), resp))
        self._settle(settled)

    def reject(self, reqs: Sequence[Request], now_us: float, detail: str,
               error: str | None = None) -> list[Response]:
        """Settle ``reqs`` as rejected for ``detail`` (one of
        :data:`REJECT_DETAILS`); ``error`` is the readable cause."""
        if detail not in REJECT_DETAILS:
            raise ValueError(f"unknown reject detail {detail!r}")
        settled = []
        with self._cond:
            for req in reqs:
                resp = Response.rejected(req, now_us, detail=detail,
                                         error=error)
                self.metrics.observe_response(resp)
                if self.tracer.enabled:
                    self.tracer.span(f"request{req.rid}", "request",
                                     req.arrival_us, now_us, {
                                         "rid": req.rid,
                                         "seq_len": req.seq_len,
                                         "client": req.client,
                                         "status": "rejected"})
                if self.events.enabled:
                    self.events.emit("reject", now_us, rid=req.rid,
                                     seq_len=req.seq_len, tenant=req.client,
                                     deadline_us=req.deadline_us,
                                     slo_met=resp.slo_met, detail=detail)
                settled.append((self._waiters.pop(req.rid, None), resp))
        return self._settle(settled)

    @staticmethod
    def _settle(settled: list[tuple[Waiter | None, Response]]
                ) -> list[Response]:
        for waiter, resp in settled:
            if waiter is not None:
                waiter(resp)
        return [resp for _, resp in settled]

    # ---- metrics ----------------------------------------------------------

    def observe_plan_cache(self, stats: dict[str, int], source: str) -> None:
        """Record one source's cumulative plan-cache counters."""
        with self._cond:
            self.metrics.observe_plan_cache(stats, source=source)

    def metrics_text(self) -> str:
        """The registry as one Prometheus exposition page."""
        with self._cond:
            return prometheus_text(self.metrics)


class LiveServer:
    """The futures API of both live backends over their ``core``.

    Subclasses provide ``start``/``stop`` and the executor that takes
    batches from ``core.next_batch()``.
    """

    core: RequestLifecycle

    @property
    def metrics(self) -> MetricsRegistry:
        """The server's serving metrics."""
        return self.core.metrics

    @property
    def slo(self) -> SloPolicy | None:
        """The SLO policy stamping request deadlines (None = no SLO)."""
        return self.core.slo

    @property
    def depth(self) -> int:
        """Requests waiting in the shared queue."""
        return self.core.queue.depth

    def submit(self, x: np.ndarray, priority: int = 0,
               mask: np.ndarray | None = None) -> "Future[Response]":
        """Enqueue one sequence; the future resolves to its :class:`Response`.

        Raises :class:`QueueFullError` when the queue is full and
        ``ValueError`` for a payload that is not ``(s, d_model)``, longer
        than the bucket policy allows, or not finite.
        """
        fut: Future[Response] = Future()
        self.core.submit(x, fut.set_result, priority=priority, mask=mask)
        return fut

    def __enter__(self) -> Any:
        return self.start()  # type: ignore[attr-defined]

    def __exit__(self, *exc: object) -> None:
        self.stop()  # type: ignore[attr-defined]
