"""The benchmark's stages, each timed from outside through ``repro``'s API.

- :class:`Backend` / :func:`start_backend` — one model behind one live
  serving backend: an :class:`~repro.serving.AsyncServer` with two worker
  threads, or a :class:`~repro.serving.PoolServer` with two replica
  processes. Set-up builds the pruned weights and engines, starts the
  server and warms it (bucket pricing, plan compilation).
- :func:`open_loop` — Poisson arrivals at one fixed rate, each request
  timed from its due time; a refusal is a failure.
- :func:`saturate` — keep the queue full, retrying on ``QueueFullError``;
  the phase's throughput is completions over its makespan.
- :func:`price_grid` — fresh engines priced through ``Engine.latency_us``
  over an engine × model × seqLen × device grid, plus ``crossover_report``.
- :func:`simulate` — virtual-time ``run_loadgen`` replays.

The ``quiet`` argument is a context manager wrapped around the output
checks, so a traced run can keep them out of its layer times.

Inputs come only from the seeded generators here; every payload a live
request carries is distinct, so no cache keyed by length can serve it.
Sampled outputs are checked bitwise against serial ``Engine.run`` and
sampled prices against ``Engine.run(x).latency_us``.
"""

from __future__ import annotations

import contextlib
import gc
import threading
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.config import ModelConfig, small_config
from repro.gpu.device import all_devices
from repro.obs.events import NULL_EVENT_LOG, EventLog
from repro.pruning import PruneMethod
from repro.runtime import EncoderWeights, ETEngine
from repro.runtime.autotune import crossover_report
from repro.serving import AsyncServer, PoolServer, QueueFullError
from repro.serving.bucketing import make_policy, model_crossover
from repro.serving.loadgen import (
    ENGINE_CLASSES,
    MODEL_CONFIGS,
    LoadgenSpec,
    run_loadgen,
)

#: Server concurrency: two worker threads or two replicas (``nproc`` = 2).
WORKERS = 2

#: Bucket policy of both live backends (the ``serve``/``loadgen`` default).
POLICY = "fine64"

#: Sampled outputs (per phase and backend) checked against serial runs.
CHECKS_PER_PHASE = 2

#: Share of weights removed by attention-aware pruning in every ET model.
SPARSITY = 0.8

#: The priced engines (keys of ``ENGINE_CLASSES``).
ENGINES = ("pytorch", "tensorrt", "fastertransformer", "et")


@dataclass(frozen=True)
class ModelSpec:
    """The served model: geometry, depth and admissible lengths."""

    name: str  # "small" or a key of ``MODEL_CONFIGS``
    num_layers: int
    lengths: tuple[int, ...]

    def config(self) -> ModelConfig:
        if self.name == "small":
            return small_config(max_seq_len=max(self.lengths))
        return MODEL_CONFIGS[self.name]


def random_weights(cfg: ModelConfig, num_layers: int, seed: int,
                   pruned: bool) -> EncoderWeights:
    """Seeded weights, attention-aware pruned to ``SPARSITY`` if ``pruned``."""
    w = EncoderWeights.random(cfg, np.random.default_rng(seed), num_layers)
    if pruned:
        w.prune(PruneMethod.ATTENTION_AWARE, SPARSITY)
    return w


def make_payloads(spec: ModelSpec, n: int,
                  rng: np.random.Generator) -> list[np.ndarray]:
    """``n`` distinct payloads; every block of ``len(lengths)`` requests
    holds each length once, in seeded order, so the work per run does not
    depend on the seed."""
    d = spec.config().d_model
    lens: list[int] = []
    while len(lens) < n:
        lens.extend(int(s) for s in rng.permutation(spec.lengths))
    return [rng.standard_normal((s, d)) for s in lens[:n]]


def same_bits(a: np.ndarray | None, b: np.ndarray) -> bool:
    """Bitwise equality (shape, dtype and every byte)."""
    return (a is not None and a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


# ---- live backends -----------------------------------------------------------


@dataclass
class Backend:
    """One started live server plus what the checks and metrics need."""

    kind: str  # "thread" | "pool"
    spec: ModelSpec
    server: AsyncServer | PoolServer
    reference: ETEngine  # serial ``Engine.run`` reference for output checks
    clock0: float  # time.monotonic() just before start: the server clock's 0
    start_s: float  # wall time of ``server.start()``

    def stop(self) -> None:
        self.server.stop()

    def server_us(self, t_mono: float) -> float:
        """A ``time.monotonic()`` stamp on the server's microsecond clock."""
        return (t_mono - self.clock0) * 1e6


def start_backend(kind: str, spec: ModelSpec, seed: int, timeout_s: float,
                  events: EventLog = NULL_EVENT_LOG) -> Backend:
    """Build, start and warm one backend (everything ``setup_s`` covers)."""
    cfg = spec.config()
    weights = random_weights(cfg, spec.num_layers, seed, pruned=True)
    engines = [ETEngine(weights) for _ in range(WORKERS if kind == "thread"
                                                else 1)]
    max_len = max(spec.lengths)
    crossover = model_crossover(cfg.num_heads, cfg.d_head, max_len,
                                device=engines[0].device)
    policy = make_policy(POLICY, crossover, max_len)
    if kind == "thread":
        server = AsyncServer(engines, policy, events=events)
    else:
        server = PoolServer(engines[0], policy, n_workers=WORKERS,
                            events=events, start_timeout_s=timeout_s)
    clock0 = time.monotonic()
    server.start()
    backend = Backend(kind=kind, spec=spec, server=server,
                      reference=engines[0], clock0=clock0,
                      start_s=time.monotonic() - clock0)
    try:
        warm(backend, seed, timeout_s)
    except BaseException:
        backend.stop()
        raise
    return backend


def warm(backend: Backend, seed: int, timeout_s: float) -> None:
    """Two rounds of one request per length, sent back to back so they
    batch: prices every length on the pool's router and compiles every
    length's packed plan (a batch of one runs serially and compiles
    nothing); the second round reaches the replica the first one missed."""
    rng = np.random.default_rng((seed, 7))
    room = threading.Event()
    for _ in range(2):
        payloads = make_payloads(backend.spec, len(backend.spec.lengths), rng)
        futures = []
        for x in payloads:
            fut = submit_retrying(backend.server, x, room)[0]
            fut.add_done_callback(lambda _f: room.set())
            futures.append(fut)
        for f in futures:
            f.result(timeout=timeout_s)


def submit_retrying(server, x: np.ndarray, room: threading.Event):
    """Submit ``x``; while the queue is full, wait up to 5 ms for ``room``
    (set by a completion) and retry.

    Returns ``(future, retries, submit_seconds)``; ``submit_seconds`` is
    the duration of the accepted ``submit`` call.
    """
    retries = 0
    while True:
        room.clear()
        t = time.perf_counter()
        try:
            fut = server.submit(x)
        except QueueFullError:
            retries += 1
            room.wait(0.005)
            continue
        return fut, retries, time.perf_counter() - t


@dataclass
class PhaseResult:
    """One live phase on one backend."""

    backend: str
    phase: str  # "open" | "saturate"
    attempted: int = 0
    refused: int = 0  # open-loop QueueFullError: a failure
    errors: int = 0  # responses that were not OK
    mismatches: int = 0  # sampled outputs that differ from serial runs
    retries: int = 0  # saturating-phase QueueFullError: not a failure
    elapsed_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    submit_us: list[float] = field(default_factory=list)
    queue_ms: list[float] = field(default_factory=list)
    exec_ms: list[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.refused - self.errors

    @property
    def failed(self) -> int:
        return self.refused + self.errors + self.mismatches

    @property
    def seq_per_s(self) -> float:
        return self.completed / self.elapsed_s


def _stamp(done: list, i: int, _fut) -> None:
    done[i] = time.perf_counter(), time.monotonic()


def _collect(backend: Backend, result: PhaseResult, payloads, futures,
             done, due, rng, timeout_s: float, quiet) -> None:
    """Wait for every future, then fill latencies, stamps and checks."""
    responses = {}
    deadline = time.monotonic() + timeout_s
    for i, f in enumerate(futures):
        if f is not None:
            responses[i] = f.result(timeout=timeout_s)
            # ``result`` can return before the done-callback has stamped.
            while done[i] is None and time.monotonic() < deadline:
                time.sleep(1e-4)
    for i, resp in responses.items():
        if not resp.ok:
            result.errors += 1
            continue
        t_done, mono_done = done[i]
        if due is not None:
            result.latencies_ms.append((t_done - due[i]) * 1e3)
        result.queue_ms.append(resp.queue_us / 1e3)
        result.exec_ms.append(
            (backend.server_us(mono_done) - resp.start_us) / 1e3)
    ok = sorted(i for i, r in responses.items() if r.ok)
    picks = rng.choice(ok, size=min(CHECKS_PER_PHASE, len(ok)),
                       replace=False) if ok else []
    with quiet():
        for i in picks:
            ref = backend.reference.run(payloads[i]).output
            if not same_bits(responses[int(i)].output, ref):
                result.mismatches += 1


def open_loop(backend: Backend, payloads: list[np.ndarray], rate: float,
              rng: np.random.Generator, timeout_s: float,
              quiet=contextlib.nullcontext) -> PhaseResult:
    """Send on a seeded Poisson schedule regardless of completions."""
    n = len(payloads)
    result = PhaseResult(backend.kind, "open", attempted=n)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n))
    futures: list = [None] * n
    done: list = [None] * n
    t0 = time.perf_counter() + 0.005
    due = [t0 + float(o) for o in offsets]
    for i, x in enumerate(payloads):
        delay = due[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        t_send = time.perf_counter()
        try:
            fut = backend.server.submit(x)
        except QueueFullError:
            result.refused += 1
            continue
        result.submit_us.append((time.perf_counter() - t_send) * 1e6)
        result.late_ms.append((t_send - due[i]) * 1e3)
        fut.add_done_callback(partial(_stamp, done, i))
        futures[i] = fut
    _collect(backend, result, payloads, futures, done, due, rng, timeout_s,
             quiet)
    ends = [done[i][0] for i, f in enumerate(futures) if f is not None]
    result.elapsed_s = (max(ends) if ends else time.perf_counter()) - t0
    return result


def saturate(backend: Backend, payloads: list[np.ndarray],
             rng: np.random.Generator, timeout_s: float,
             quiet=contextlib.nullcontext) -> PhaseResult:
    """Keep the queue full until every payload is in; time the makespan."""
    n = len(payloads)
    result = PhaseResult(backend.kind, "saturate", attempted=n)
    futures: list = [None] * n
    done: list = [None] * n
    room = threading.Event()

    def stamp_and_signal(i: int, fut) -> None:
        _stamp(done, i, fut)
        room.set()

    t0 = time.perf_counter()
    for i, x in enumerate(payloads):
        fut, retries, dt = submit_retrying(backend.server, x, room)
        result.retries += retries
        result.submit_us.append(dt * 1e6)
        fut.add_done_callback(partial(stamp_and_signal, i))
        futures[i] = fut
    _collect(backend, result, payloads, futures, done, None, rng, timeout_s,
             quiet)
    result.elapsed_s = max(d[0] for d in done if d is not None) - t0
    return result


# ---- pricing -----------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """The priced grid: every engine × model × seqLen × device."""

    models: tuple[str, ...]
    num_layers: int
    seq_lens: tuple[int, ...]

    def config(self, model: str) -> ModelConfig:
        return ModelSpec(model, self.num_layers, self.seq_lens).config()


def grid_weights(grid: GridSpec, seed: int) -> dict[tuple[str, str],
                                                    EncoderWeights]:
    """Per (model, engine) weights: dense for the baselines, pruned for ET."""
    out: dict[tuple[str, str], EncoderWeights] = {}
    for model in grid.models:
        cfg = grid.config(model)
        dense = random_weights(cfg, grid.num_layers, seed, pruned=False)
        pruned = random_weights(cfg, grid.num_layers, seed, pruned=True)
        for engine in ENGINES:
            out[(model, engine)] = pruned if engine == "et" else dense
    return out


@dataclass
class PriceResult:
    points: int = 0
    elapsed_s: float = 0.0
    #: points per CPU second (this thread's) of each (model, device) block
    #: of each pass
    block_rates: list[float] = field(default_factory=list)
    mismatches: int = 0

    @property
    def points_per_cpu_s(self) -> float:
        """Median over blocks, so a burst of host noise moves one block."""
        return float(np.median(self.block_rates))


def grid_blocks(grid: GridSpec, passes: int) -> list[tuple[str, object]]:
    """The (model, device) blocks of ``passes`` passes over the grid."""
    return [(model, device) for _ in range(passes) for model in grid.models
            for device in all_devices()]


def price_grid(result: PriceResult, grid: GridSpec, weights, blocks,
               checks: int, rng: np.random.Generator,
               quiet=contextlib.nullcontext) -> None:
    """Price every engine × seqLen of each (model, device) block with a
    fresh engine per point, plus ``crossover_report`` at a model's first
    device, into ``result``; ``checks`` sampled prices are checked. The
    block rates use this thread's CPU time, as in :func:`simulate`."""
    n = len(blocks) * len(ENGINES) * len(grid.seq_lens)
    picks = set(result.points + int(k)
                for k in rng.choice(n, size=min(checks, n), replace=False))
    samples = []  # only the picked engines stay alive
    t0 = time.perf_counter()
    for model, device in blocks:
        cfg = grid.config(model)
        if device == all_devices()[0]:
            crossover_report(cfg.num_heads, cfg.d_head)
        cpu_block = time.thread_time()
        before = result.points
        for name in ENGINES:
            cls = ENGINE_CLASSES[name]
            for s in grid.seq_lens:
                engine = cls(weights[(model, name)], device=device)
                us = engine.latency_us(seq_len=s)
                if result.points in picks:
                    samples.append((engine, s, us))
                result.points += 1
        result.block_rates.append((result.points - before)
                                  / (time.thread_time() - cpu_block))
    result.elapsed_s += time.perf_counter() - t0
    with quiet():
        for engine, s, us in samples:
            x = rng.standard_normal((s, engine.weights.config.d_model))
            if engine.run(x).latency_us != us:
                result.mismatches += 1


# ---- virtual-time replay -----------------------------------------------------


@dataclass
class SimResult:
    """Replays of one spec under different seeds."""

    requests: int = 0  # over all replays
    completed: int = 0
    rejected: int = 0
    rates: list[float] = field(default_factory=list)  # requests / thread CPU s
    latencies_us: list[float] = field(default_factory=list)  # pooled
    goodput_seq_s: list[float] = field(default_factory=list)
    slo_attainment: list[float] = field(default_factory=list)
    elapsed_s: float = 0.0

    def latency_us(self, q: float) -> float:
        """Percentile ``q`` of the modeled latencies of every replay."""
        return float(np.percentile(self.latencies_us, q))

    @property
    def consistent(self) -> bool:
        """Every simulated request was either served or rejected."""
        return self.completed + self.rejected == self.requests


def simulate(out: SimResult, specs: list[LoadgenSpec],
             events: EventLog | None = None) -> None:
    """One ``run_loadgen`` per spec, into ``out``. Host time covers each
    whole call, engine build and SLO pricing included. The rates use this
    thread's CPU time, which leaves out what other tenants of the host take
    (steal) and what idle BLAS helper threads burn spinning."""
    for spec in specs:
        gc.collect()  # the previous replay's garbage is not this one's cost
        t0, cpu0 = time.perf_counter(), time.thread_time()
        res = run_loadgen(spec, events=events)
        elapsed = time.perf_counter() - t0
        cpu = time.thread_time() - cpu0
        m = res.metrics
        out.requests += spec.num_requests
        out.completed += m.completed
        out.rejected += m.rejected
        out.elapsed_s += elapsed
        out.rates.append(spec.num_requests / cpu)
        out.latencies_us.extend(m.latencies_us)
        out.goodput_seq_s.append(m.goodput_seq_s)
        out.slo_attainment.append(m.slo.attainment)
