"""Multi-process pool serving front end with the AsyncServer's interface.

:class:`PoolServer` is the process-pool twin of
:class:`~repro.serving.server.AsyncServer`: same ``start``/``stop``/
``submit``/``depth``/``metrics_text`` surface and the same shared
:class:`~repro.serving.lifecycle.RequestLifecycle` (admission, batch
formation, settlement, telemetry), but batches execute on replica
*processes* that share one read-only weight segment
(:mod:`repro.runtime.shm`) instead of engine threads contending on the GIL.

Division of labour (three parent threads, N replica processes):

- the **dispatcher** thread takes each formed batch from the lifecycle
  and books it onto the least-loaded replica through the
  :class:`~repro.serving.pool.router.Router`;
- :meth:`_feed` (run by dispatcher *and* collector) moves booked batches
  from router backlogs into replica task pipes, at most
  ``pipeline_depth`` in flight per replica — batches still in a backlog
  remain stealable, which is how seqLen-bucket skew resolves;
- the **collector** thread consumes one shared result queue: it settles
  router accounting, hands each result to the lifecycle (which resolves
  the futures and traces the members' timelines on the replica's worker
  track), folds replica plan-cache counters into the metrics, and
  reaps dead replicas (their unfinished batches are re-booked onto
  survivors, or shed when none remain).

Clock convention matches the AsyncServer: arrival/dispatch stamps are
wall clock on the lifecycle's clock, service time stays in cost-model
microseconds. Responses are bitwise-identical to the AsyncServer's
because engine outputs depend only on the input sequence — never on
batch composition, replica identity, or worker count.
"""

from __future__ import annotations

import functools
import queue as std_queue
import threading
import time
from collections import Counter
from concurrent.futures import Future
from multiprocessing import get_context

import numpy as np

from repro.obs.events import NULL_EVENT_LOG, EventLog
from repro.obs.prometheus import pool_prometheus_text
from repro.obs.slo import SloPolicy
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime.engine import Engine
from repro.runtime.shm import SharedWeightStore, segment_exists
from repro.serving.batcher import Batch, DynamicBatcher
from repro.serving.bucketing import BucketPolicy
from repro.serving.lifecycle import LiveServer, RequestLifecycle
from repro.serving.pool.router import (
    AdmissionController,
    QuotaExceededError,
    Router,
)
from repro.serving.pool.worker import (
    STOP,
    BatchResult,
    BatchTask,
    WorkerGoodbye,
    WorkerHello,
    replica_main,
)
from repro.serving.request import Response


class PoolServer(LiveServer):
    """Futures-based serving loop over a pool of replica processes."""

    def __init__(
        self,
        engine: Engine,
        policy: BucketPolicy,
        n_workers: int = 2,
        max_batch: int = 8,
        max_wait_us: float = 2_000.0,
        max_depth: int = 64,
        tracer: Tracer = NULL_TRACER,
        max_inflight_per_tenant: int | None = None,
        tenant_quotas: dict[int, int] | None = None,
        payload_table: dict[int, np.ndarray] | None = None,
        packed: bool | None = None,
        memoize_by_len: bool = False,
        pipeline_depth: int = 2,
        return_outputs: bool = True,
        start_timeout_s: float = 120.0,
        events: EventLog = NULL_EVENT_LOG,
        slo: SloPolicy | None = None,
    ) -> None:
        if n_workers <= 0:
            raise ValueError(f"need at least one replica, got {n_workers}")
        if pipeline_depth <= 0:
            raise ValueError(
                f"pipeline_depth must be positive: {pipeline_depth}")
        self.engine = engine  # parent-side: weights, name, cost pricing
        self.n_workers = n_workers
        self.events = events
        self.core = RequestLifecycle(
            engine, DynamicBatcher(policy, max_batch=max_batch,
                                   max_wait_us=max_wait_us),
            max_depth=max_depth, tracer=tracer, events=events, slo=slo)
        self.payload_table = payload_table
        self.packed = packed
        self.memoize_by_len = memoize_by_len
        self.pipeline_depth = pipeline_depth
        self.return_outputs = return_outputs
        self.start_timeout_s = start_timeout_s
        self.worker_deaths = 0
        self.shm_bytes = 0
        self._segment_name: str | None = None
        #: Latest cumulative per-replica counters shipped over IPC.
        self._replica_counters: dict[int, dict[str, float]] = {}
        self._admission = AdmissionController(
            max_inflight_per_tenant=max_inflight_per_tenant,
            quotas=tenant_quotas)
        self._ctx = get_context("spawn")  # safe beside parent threads
        self._work = threading.Condition()
        self._router: Router | None = None
        self._store: SharedWeightStore | None = None
        self._task_qs: dict[int, object] = {}
        self._result_q: object | None = None
        self._procs: dict[int, object] = {}
        #: batch_id -> (replica, batch, dispatch stamp) for in-pipe batches
        self._sent: dict[int, tuple[int, Batch, float]] = {}
        self._collecting = False
        self._stopping = False  # replicas exiting on purpose, not crashing
        self._dispatcher: threading.Thread | None = None
        self._collector: threading.Thread | None = None

    # ---- pricing ----------------------------------------------------------

    def _price(self, seq_len: int) -> float:
        """Cost-model service us for one request of ``seq_len``."""
        x = None if self.payload_table is None \
            else self.payload_table.get(seq_len)
        return self.engine.latency_us(seq_len=seq_len, x=x)

    # ---- lifecycle --------------------------------------------------------

    def start(self) -> "PoolServer":
        """Create the weight segment, spawn the replicas, start serving."""
        self.core.start()
        with self._work:
            self._collecting = True
            self._stopping = False
            self._store = SharedWeightStore.create(self.engine.weights)
            self.shm_bytes = self._store.nbytes
            self._segment_name = self._store.manifest.segment
            # Priced once per length (the cache is thread-safe).
            self._router = Router(list(range(self.n_workers)),
                                  functools.cache(self._price),
                                  on_steal=self._on_steal)
            self._result_q = self._ctx.Queue()
            self._task_qs = {}
            self._procs = {}
            for rid in range(self.n_workers):
                tq = self._ctx.Queue()
                self._task_qs[rid] = tq
                self._procs[rid] = self._ctx.Process(
                    target=replica_main,
                    args=(rid, self._store.manifest, self.engine.name, tq,
                          self._result_q, self.payload_table, self.packed,
                          self.memoize_by_len),
                    name=f"pool-replica-{rid}", daemon=True)
            procs = list(self._procs.values())
        try:
            for p in procs:
                p.start()
            self._await_hellos()
        except BaseException:
            self._teardown_processes()
            self._destroy_store()
            self.core.stop()
            with self._work:
                self._collecting = False
            raise
        with self._work:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="pool-dispatch", daemon=True)
            self._collector = threading.Thread(
                target=self._collect_loop, name="pool-collect", daemon=True)
            threads = [self._dispatcher, self._collector]
        for t in threads:
            t.start()
        return self

    def _await_hellos(self) -> None:
        """Block until every replica announced itself (or fail loudly)."""
        deadline = time.monotonic() + self.start_timeout_s  # etlint: disable=ET301 timing boundary
        greeted: set[int] = set()
        while len(greeted) < self.n_workers:
            remaining = deadline - time.monotonic()  # etlint: disable=ET301 timing boundary
            if remaining <= 0:
                raise RuntimeError(
                    f"only {len(greeted)}/{self.n_workers} replicas came up "
                    f"within {self.start_timeout_s:g}s")
            try:
                msg = self._result_q.get(timeout=remaining)  # type: ignore[union-attr]
            except std_queue.Empty:
                continue
            if isinstance(msg, WorkerHello):
                greeted.add(msg.worker_id)

    def stop(self, drain: bool = True) -> None:
        """Stop the pool; with ``drain`` every queued request is served.

        Always joins the replicas and unlinks the weight segment — after
        ``stop`` returns, no shared-memory segment remains linked.
        """
        with self._work:
            if not self._collecting:
                return
            dispatcher = self._dispatcher
            self._dispatcher = None
        dropped = self.core.stop(drain)
        if dispatcher is not None:
            dispatcher.join()  # flushes the queue into router backlogs
        router = self._router
        if not drain:  # turn away everything not already on a replica
            dropped += [r for b in router.drain() for r in b.requests]
        self.core.reject(dropped, self.core.now_us(), "shutdown_drop")
        with self._work:  # in-pipe batches always finish (they're running)
            while self._sent or any(router.backlog_depth(r)
                                    for r in router.replica_ids):
                self._work.wait(0.1)
        self._teardown_processes()
        with self._work:
            self._collecting = False
            collector = self._collector
            self._collector = None
        if collector is not None:
            collector.join()
        self._drain_stray_messages()
        self.core.queue.close()
        self._destroy_store()
        # Drain contract: the weight segment must be gone. A leak here is a
        # lifecycle bug (crashed owner, double attach) that would otherwise
        # only surface as a stale /dev/shm file.
        assert self._live_segments() == 0, \
            f"leaked shared-memory segment {self._segment_name!r} after stop"

    def _teardown_processes(self) -> None:
        """Order every live replica out, then join (terminate stragglers)."""
        with self._work:
            self._stopping = True  # exits below are ordered, not deaths
            tqs = dict(self._task_qs)
            procs = dict(self._procs)
        for rid, tq in tqs.items():
            if procs[rid].is_alive():
                try:
                    tq.put(STOP)  # type: ignore[attr-defined]
                except (ValueError, OSError):
                    pass
        for p in procs.values():
            p.join(timeout=10)
            if p.is_alive():  # wedged replica: the pool must still come down
                p.terminate()
                p.join(timeout=5)

    def _drain_stray_messages(self) -> None:
        """Collect goodbyes (and drop stragglers) after the collector exits."""
        if self._result_q is None:
            return
        while True:
            try:
                msg = self._result_q.get_nowait()  # type: ignore[attr-defined]
            except (std_queue.Empty, OSError, ValueError):
                return
            if isinstance(msg, WorkerGoodbye):
                self._record_counters(msg)

    def _destroy_store(self) -> None:
        with self._work:
            store = self._store
            self._store = None
        if store is not None:
            store.close()
            store.unlink()

    def _live_segments(self) -> int:
        """How many of this pool's weight segments are still linked.

        One segment per pool, so this is 1 while serving and must be 0
        after :meth:`stop`; exported as the ``pool_shm_segments`` gauge.
        """
        if self._segment_name is None:
            return 0
        return 1 if segment_exists(self._segment_name) else 0

    def _on_steal(self, thief: int, victim: int, batch: Batch) -> None:
        """Router steal observer: record the migration in the recorder."""
        self.events.emit("steal", self.core.now_us(), batch_id=batch.batch_id,
                         bucket=batch.bucket, size=batch.size, replica=thief,
                         src=victim)

    # ---- client API -------------------------------------------------------

    def submit(self, x: np.ndarray, priority: int = 0,
               mask: np.ndarray | None = None,
               client: int = 0) -> "Future[Response]":
        """Enqueue one sequence; raises :class:`QueueFullError` when the
        shared queue is at depth, :class:`QuotaExceededError` when the
        tenant is over its in-flight quota and ``ValueError`` for a payload
        the lifecycle cannot serve."""
        x = np.asarray(x, dtype=np.float64)
        try:
            self._admission.admit(client)
        except QuotaExceededError:
            # Quota rejections precede rid assignment: the event carries
            # the tenant, not a rid (the request never entered the system).
            self.events.emit("quota_reject", self.core.now_us(),
                             seq_len=int(x.shape[0]) if x.ndim else None,
                             tenant=client)
            raise
        fut: Future[Response] = Future()

        def settle(resp: Response) -> None:
            # The quota frees before the client can see the result.
            self._admission.release(client)
            fut.set_result(resp)

        self.core.submit(x, settle, priority=priority, mask=mask,
                         client=client)
        return fut

    def pool_snapshot(self) -> dict[str, object]:
        """Pool-level state for metrics: per-replica load, steals, shm."""
        router_snap = self._router.snapshot() if self._router else {}
        with self._work:
            inpipe = self._inpipe()
            replicas = {
                rid: {
                    "backlog": snap["backlog"],
                    "outstanding_us": snap["outstanding_us"],
                    "inpipe": float(inpipe[rid]),
                    "alive": bool(self._procs[rid].is_alive())
                    if rid in self._procs else False,
                    "counters": dict(self._replica_counters.get(rid, {})),
                }
                for rid, snap in router_snap.items()
            }
        return {
            "replicas": replicas,
            "steals": float(self._router.steals) if self._router else 0.0,
            "batches_dispatched": float(self._router.dispatched)
            if self._router else 0.0,
            "shm_bytes": float(self.shm_bytes),
            "shm_segments": float(self._live_segments()),
            "worker_deaths": float(self.worker_deaths),
            "tenants_inflight": self._admission.snapshot(),
        }

    def metrics_text(self) -> str:
        """Serving metrics + pool series as one Prometheus exposition page."""
        snapshot = self.pool_snapshot()
        return self.core.metrics_text() + pool_prometheus_text(snapshot)

    # ---- dispatcher -------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while (batch := self.core.next_batch()) is not None:
            # Booking may price unseen lengths through the parent engine —
            # never hold a lock across it.
            self._router.assign(batch)  # type: ignore[union-attr]
            self._feed()

    def _feed(self) -> None:
        """Move booked batches into replica pipes, bounded per replica."""
        router = self._router
        if router is None:
            return
        sends: list[tuple[int, Batch, float]] = []
        with self._work:
            inpipe = self._inpipe()
            for rid in router.replica_ids:
                while inpipe[rid] < self.pipeline_depth:
                    batch = router.acquire(rid)
                    if batch is None:
                        break
                    start = self.core.now_us()
                    self._sent[batch.batch_id] = (rid, batch, start)
                    inpipe[rid] += 1
                    sends.append((rid, batch, start))
        for rid, batch, start in sends:
            self.core.dispatch(batch, start, rid)
            task = self._make_task(batch)
            try:
                self._task_qs[rid].put(task)  # type: ignore[attr-defined]
            except (ValueError, OSError):
                pass  # pipe died with its replica; the reaper re-books it

    def _inpipe(self) -> Counter[int]:
        """Batches in each replica's pipe (call under ``_work``)."""
        return Counter(r for r, _batch, _start in self._sent.values())

    def _make_task(self, batch: Batch) -> BatchTask:
        """Ship payload-table lengths instead of arrays when possible."""
        payloads: list[object] = []
        for r in batch.requests:
            if (self.payload_table is not None and r.mask is None
                    and r.x is self.payload_table.get(r.seq_len)):
                payloads.append(r.seq_len)
            else:
                payloads.append(r.x)
        return BatchTask(
            batch_id=batch.batch_id, payloads=payloads,
            masks=[r.mask for r in batch.requests],
            want_trace=self.core.traced,
            return_outputs=self.return_outputs)

    # ---- collector --------------------------------------------------------

    def _collect_loop(self) -> None:
        while True:
            with self._work:
                if not self._collecting and not self._sent:
                    return
            try:
                msg = self._result_q.get(timeout=0.1)  # type: ignore[union-attr]
            except std_queue.Empty:
                self._reap_dead()
                continue
            except (OSError, ValueError):
                return  # result queue torn down under us: shutting down
            if isinstance(msg, BatchResult):
                self._on_result(msg)
            elif isinstance(msg, WorkerGoodbye):
                self._record_counters(msg)

    def _record_counters(self, msg: BatchResult | WorkerGoodbye) -> None:
        """Fold a replica's cumulative plan-cache and busy counters in."""
        if msg.plan_stats:
            self.core.observe_plan_cache(msg.plan_stats,
                                         source=f"replica{msg.worker_id}")
        with self._work:
            self._replica_counters[msg.worker_id] = dict(msg.counters)

    def _on_result(self, result: BatchResult) -> None:
        with self._work:
            entry = self._sent.pop(result.batch_id, None)
        if entry is None:
            return  # batch was re-booked after a presumed death; drop dup
        rid, batch, start = entry
        self._record_counters(result)
        self._router.complete(result.batch_id)  # type: ignore[union-attr]
        self.events.emit("exec", start + result.service_us,
                         batch_id=result.batch_id, bucket=batch.bucket,
                         size=batch.size, replica=result.worker_id,
                         detail=result.error and "error")
        if result.error is not None:
            self.core.reject(batch.requests, self.core.now_us(),
                             "batch_error", result.error)
        else:
            self.core.complete(batch, rid, start, result.service_us,
                               result.outputs, result.traced)
        with self._work:
            self._work.notify_all()
        self._feed()

    # ---- replica death ----------------------------------------------------

    def _reap_dead(self) -> None:
        """Retire dead replicas; re-book their unfinished batches."""
        router = self._router
        if router is None:
            return
        live = set(router.replica_ids)
        with self._work:
            if self._stopping:
                return  # ordered shutdown: exits are expected
            dead = [rid for rid, p in self._procs.items()
                    if rid in live and not p.is_alive()]
        if not dead:
            return
        todo: list[Batch] = []
        for rid in dead:
            self.events.emit("worker_death", self.core.now_us(), replica=rid)
            todo.extend(router.retire(rid))
            with self._work:
                self.worker_deaths += 1
                retained = [(bid, b) for bid, (r, b, _s)
                            in self._sent.items() if r == rid]
                for bid, _b in retained:
                    del self._sent[bid]
            for bid, b in retained:
                router.forget(bid)
                todo.append(b)
        survivors = router.replica_ids
        if survivors:
            for b in todo:
                new_rid = router.assign(b)
                self.events.emit("rebook", self.core.now_us(),
                                 batch_id=b.batch_id, bucket=b.bucket,
                                 size=b.size, replica=new_rid)
        else:
            self.core.reject([r for b in todo for r in b.requests],
                             self.core.now_us(), "shed")
        with self._work:
            self._work.notify_all()
        self._feed()
