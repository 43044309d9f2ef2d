"""Thread-backed asynchronous serving front end.

:class:`AsyncServer` is the live counterpart of the deterministic
scheduler: ``submit`` hands a payload to the shared
:class:`~repro.serving.lifecycle.RequestLifecycle` (stamp, validate,
admit) and returns a future; a pool of worker threads takes the
length-bucketed batches it forms and executes them through
``Engine.run_batch``. Queueing time is wall clock (threads really wait),
service time stays in cost-model microseconds — the simulated GPU is the
resource being scheduled, the host threads only coordinate.
"""

from __future__ import annotations

import threading

from repro.obs.events import NULL_EVENT_LOG, EventLog
from repro.obs.slo import SloPolicy
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime.engine import Engine
from repro.runtime.plan import PLAN_CACHE
from repro.serving.batcher import DynamicBatcher
from repro.serving.bucketing import BucketPolicy
from repro.serving.lifecycle import LiveServer, RequestLifecycle
from repro.serving.scheduler import EngineWorker


class AsyncServer(LiveServer):
    """Futures-based serving loop over a pool of engine worker threads."""

    def __init__(
        self,
        engines: list[Engine],
        policy: BucketPolicy,
        max_batch: int = 8,
        max_wait_us: float = 2_000.0,
        max_depth: int = 64,
        tracer: Tracer = NULL_TRACER,
        events: EventLog = NULL_EVENT_LOG,
        slo: SloPolicy | None = None,
    ) -> None:
        if not engines:
            raise ValueError("need at least one engine")
        self.core = RequestLifecycle(
            engines[0], DynamicBatcher(policy, max_batch=max_batch,
                                       max_wait_us=max_wait_us),
            max_depth=max_depth, tracer=tracer, events=events, slo=slo)
        self._workers = [EngineWorker(e) for e in engines]
        self._threads: list[threading.Thread] = []

    # ---- lifecycle --------------------------------------------------------

    def start(self) -> "AsyncServer":
        """Spawn one thread per engine worker."""
        self.core.start()
        self._threads = [
            threading.Thread(target=self._worker_loop, args=(i, w),
                             name=f"serve-worker-{i}", daemon=True)
            for i, w in enumerate(self._workers)
        ]
        for t in self._threads:
            t.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the workers; with ``drain`` they finish everything queued."""
        dropped = self.core.stop(drain)
        threads, self._threads = self._threads, []
        for t in threads:
            t.join()
        self.core.reject(dropped, self.core.now_us(), "shutdown_drop")
        self.core.queue.close()

    def metrics_text(self) -> str:
        """The live metrics as one Prometheus exposition page (scrapable)."""
        # Engine threads share this process's plan cache: one source.
        self.core.observe_plan_cache(PLAN_CACHE.stats(), source="server")
        return self.core.metrics_text()

    # ---- worker loop ------------------------------------------------------

    def _worker_loop(self, w_idx: int, worker: EngineWorker) -> None:
        core = self.core
        while (batch := core.next_batch()) is not None:
            start = core.now_us()
            core.dispatch(batch, start, w_idx)
            try:
                results, service_us = worker.process(batch)
            except Exception as exc:  # the batch fails; the worker lives on
                core.reject(batch.requests, core.now_us(), "batch_error",
                            f"{type(exc).__name__}: {exc}")
                continue
            core.complete(batch, w_idx, start, service_us,
                          [res.output for res in results], results)
