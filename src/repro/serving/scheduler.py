"""Deterministic virtual-time scheduler over a pool of engine workers.

The scheduler replays a stream of arrival-stamped requests on the cost
model's clock: arrivals enter the queue (admission control may reject),
the dynamic batcher forms same-bucket batches, and free workers execute
them through :meth:`Engine.run_batch` — the batch's service time is the
aggregated timeline's total. Everything is a pure function of the request
stream and the configuration, so a seeded load generator yields an
identical report on every run.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

from repro.obs.events import NULL_EVENT_LOG, EventLog
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime.engine import Engine, EngineResult
from repro.serving.batcher import Batch, DynamicBatcher
from repro.serving.lifecycle import RequestLifecycle
from repro.serving.metrics import MetricsRegistry
from repro.serving.request import Request, Response


class EngineWorker:
    """One engine behind the batcher's ``run_batch`` API.

    With ``memoize_by_len=True`` the worker caches each sequence length's
    result the first time it runs it and reuses it afterwards. That is only
    sound when callers guarantee one payload per length — the load
    generator does exactly that (it pre-builds one input per length), which
    turns a 200-request sweep into O(unique lengths) engine executions
    without changing a single reported number.

    ``packed`` is forwarded to :meth:`Engine.run_batch`: ``None`` (default)
    lets the engine use its packed batch path whenever it has one, and the
    batcher's buckets pass through whole — both paths produce bitwise
    identical results, so reports do not depend on the setting.
    """

    def __init__(self, engine: Engine, memoize_by_len: bool = False,
                 packed: bool | None = None) -> None:
        self.engine = engine
        self.memoize_by_len = memoize_by_len
        self.packed = packed
        self._cache: dict[int, EngineResult] = {}
        self.batches_run = 0
        self.busy_us = 0.0

    def process(self, batch: Batch) -> tuple[list[EngineResult], float]:
        """Run one batch; returns per-request results and service time (us)."""
        reqs = batch.requests
        if self.memoize_by_len:
            missing = [r for r in reqs
                       if r.seq_len not in self._cache and r.mask is None]
            if missing:
                todo = {r.seq_len: r for r in missing}
                results, _ = self.engine.run_batch(
                    [r.x for r in todo.values()], packed=self.packed)
                for s, res in zip(todo, results):
                    self._cache[s] = res
            results = []
            for r in reqs:
                if r.mask is None:
                    results.append(self._cache[r.seq_len])
                else:  # masked requests are never cacheable by length
                    results.append(self.engine.run(r.x, r.mask))
            service_us = sum(res.timeline.total_time_us for res in results)
        else:
            results, agg = self.engine.run_batch(
                [r.x for r in reqs], [r.mask for r in reqs],
                packed=self.packed)
            service_us = agg.total_time_us
        self.batches_run += 1
        self.busy_us += service_us
        return results, service_us


class Scheduler:
    """Event-driven simulation of queue → batcher → worker pool.

    The request lifecycle (admission, batching, settlement, telemetry) is
    the shared :class:`~repro.serving.lifecycle.RequestLifecycle`; the
    scheduler only owns the virtual clock and which worker is free when.
    """

    def __init__(self, workers: Sequence[EngineWorker],
                 batcher: DynamicBatcher, max_depth: int = 64,
                 tracer: Tracer = NULL_TRACER,
                 events: EventLog = NULL_EVENT_LOG) -> None:
        if not workers:
            raise ValueError("need at least one worker")
        self.workers = list(workers)
        self.core = RequestLifecycle(self.workers[0].engine, batcher,
                                     max_depth=max_depth, tracer=tracer,
                                     events=events)

    @property
    def metrics(self) -> MetricsRegistry:
        """The run's serving metrics."""
        return self.core.metrics

    def run(
        self,
        arrivals: Sequence[Request],
        next_request: Callable[[Response], Request | None] | None = None,
    ) -> list[Response]:
        """Simulate a request stream to completion; returns all responses.

        ``next_request`` enables closed-loop load: called with every
        terminal response, it may return the issuing client's next request
        (with a future ``arrival_us``), which joins the stream.
        """
        core = self.core
        pending: list[tuple[float, int, Request]] = [
            (r.arrival_us, r.rid, r) for r in arrivals
        ]
        heapq.heapify(pending)
        free_us = [0.0] * len(self.workers)
        responses: list[Response] = []

        def settle(resp: Response) -> None:
            responses.append(resp)
            follow = None if next_request is None else next_request(resp)
            if follow is not None:
                heapq.heappush(pending,
                               (follow.arrival_us, follow.rid, follow))

        now = 0.0
        while pending or core.queue.depth:
            while pending and pending[0][0] <= now:
                core.admit(heapq.heappop(pending)[2], settle)
            # Workers take batches in index order; batch choice itself is
            # deterministic (oldest-first), so the whole step is replayable.
            for w_idx, worker in enumerate(self.workers):
                if free_us[w_idx] > now or core.queue.depth == 0:
                    continue
                # no future arrivals can join a bucket: flush
                batch = core.pop_batch(now, flush=not pending)
                if batch is None:
                    continue
                core.dispatch(batch, now, w_idx)
                results, service_us = worker.process(batch)
                free_us[w_idx] = now + service_us
                core.complete(batch, w_idx, now, service_us,
                              [res.output for res in results], results)
            # Next decision point: an arrival, a worker freeing up, or a
            # pending bucket crossing its batching deadline.
            candidates = []
            if pending:
                candidates.append(pending[0][0])
            if core.queue.depth:
                deadline = core.batcher.next_deadline_us(core.queue)
                if deadline is not None:
                    candidates.append(deadline)
                candidates.extend(f for f in free_us if f > now)
            future = [t for t in candidates if t > now]
            if not future:
                if core.queue.depth:  # overdue work, a worker is free
                    continue
                break
            now = min(future)
        return sorted(responses, key=lambda r: r.rid)
