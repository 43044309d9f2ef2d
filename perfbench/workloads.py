"""The workloads, how a run executes them, and the metrics it reports.

Every workload runs the same three stages with its own models and sizes —
live saturating serving on both backends, grid pricing, virtual-time
replay — because every run must report every end-to-end metric. Traced
runs add an open-loop Poisson phase where the live model is fast enough to
give stable percentiles, and measure the tracing overhead. See README.md.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from perfbench import layers
from perfbench.stages import (
    WORKERS,
    Backend,
    GridSpec,
    ModelSpec,
    PhaseResult,
    PriceResult,
    SimResult,
    grid_blocks,
    grid_weights,
    make_payloads,
    open_loop,
    price_grid,
    saturate,
    simulate,
    start_backend,
)
from repro.obs.critical_path import build_waterfalls, stage_shares
from repro.obs.events import EventLog
from repro.runtime.autotune import TUNE_CACHE
from repro.runtime.plan import PLAN_CACHE
from repro.serving.loadgen import LoadgenSpec

#: Rounds of the live stage per run: each sets up both backends and runs
#: one saturating slice on each; ``setup_s`` and the throughputs are
#: medians over the rounds.
SETUP_REPS = 3

#: Sampled grid prices checked per run.
PRICE_CHECKS = 3

#: Traced/plain pairs of thread saturating slices behind
#: ``obs.trace_overhead_frac`` (the median over the pairs).
OVERHEAD_PAIRS = 3

#: The interactive model: small geometry, two layers, 80 % pruned ET.
SHORT = ModelSpec("small", 2, (16, 32, 48, 64))

#: One BERT_BASE encoder layer, 80 % pruned ET.
BERT = ModelSpec("BERT_BASE", 1, (32, 64, 96, 128))

#: Serving stages read from the per-backend events (critical_path.STAGES).
SERVING_STAGES = ("bucket_fill", "hol_blocking", "replica_wait",
                  "dispatch_wait", "execution", "collection")

BACKENDS = ("thread", "pool")

#: Arrival rate of the traced open-loop Poisson phase (requests/s).
OPEN_RATE = 60.0


@dataclass(frozen=True)
class Workload:
    """One named workload: models, stage sizes and the seconds split."""

    name: str
    why: str
    live_model: ModelSpec  # served by both live backends
    grid: GridSpec
    sim: dict  # LoadgenSpec fields; seed and num_requests come per run
    sat_rate: float  # nominal completions/s, sizes the saturating phase
    sim_rate: float  # nominal replayed requests per host second
    grid_pass_s: float  # nominal host seconds of one pricing pass
    replays: int  # virtual-time replays; their metrics are medians
    split: dict = field(default_factory=dict)  # stage -> share of --seconds

    def sizes(self, seconds: float, rounds: int) -> dict[str, int]:
        """Requests per live slice (a whole number of length blocks),
        pricing passes and requests per replay."""
        s = self.split
        block = len(self.live_model.lengths)
        per_slice = self.sat_rate * seconds * s["saturate"] / 2 / rounds
        return {
            "open": round(OPEN_RATE * seconds * s["latency"] / 2),
            "saturate": block * max(4, round(per_slice / block)),
            "passes": max(1, round(seconds * s["price"]
                                   / self.grid_pass_s)),
            "sim": max(200, round(self.sim_rate * seconds * s["sim"]
                                  / self.replays)),
        }


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="serve_short",
            why="small ET model, lengths 16-64: about 1 ms of numerics per "
                "request, so the request lifecycle and IPC dominate",
            live_model=SHORT,
            grid=GridSpec(("small",), 2, (16, 64)),
            sim=dict(model="small", num_layers=2, max_seq_len=64,
                     seq_step=16, rate_per_s=20_000.0, slo_us=0.0,
                     slo_scale=15.0),
            sat_rate=300.0, sim_rate=14_000.0, grid_pass_s=0.08, replays=9,
            split={"latency": 0.3, "saturate": 0.9, "price": 0.1,
                   "sim": 0.3}),
        Workload(
            name="bulk_bert",
            why="one BERT_BASE ET layer live (TileBCSR numerics, pool BLAS "
                "oversubscription) plus BERT-family grid pricing and "
                "virtual-time replay",
            live_model=BERT,
            grid=GridSpec(("BERT_BASE", "DistilBERT", "Transformer"), 1,
                          (64, 256)),
            sim=dict(model="BERT_BASE", num_layers=1, max_seq_len=256,
                     seq_step=64, rate_per_s=10_000.0, slo_us=0.0,
                     slo_scale=15.0),
            sat_rate=10.0, sim_rate=150.0, grid_pass_s=6.5, replays=3,
            split={"latency": 0.0, "saturate": 1.0, "price": 0.25,
                   "sim": 0.45}),
    )
}

#: End-to-end metrics: name -> unit (BENCHMARK.json holds direction/bound).
END_TO_END = {
    "setup_s": "s",
    "thread_seq_per_s": "1/s", "pool_seq_per_s": "1/s",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
    "price_points_per_cpu_s": "1/cpu_s",
    "sim_req_per_cpu_s": "1/cpu_s",
    "sim_p50_us": "us", "sim_p99_us": "us",
    "sim_goodput_seq_s": "1/s",
    "sim_slo_attainment": "fraction",
}


def _serving_units() -> dict[str, str]:
    out = {}
    for b in BACKENDS:
        p = f"serving.{b}."
        out.update({p + "open_p50_ms": "ms", p + "open_p90_ms": "ms",
                    p + "submit_us": "us", p + "refused_frac": "fraction",
                    p + "queue_ms_p50": "ms", p + "exec_ms_p50": "ms",
                    p + "batch_size_mean": "count"})
        out.update({f"{p}stage.{s}_share": "fraction"
                    for s in SERVING_STAGES})
    return out


#: Per-layer metrics (traced runs): name -> unit.
PER_LAYER = {
    **_serving_units(),
    "serving.pool.start_s": "s",
    "serving.pool.steals": "count",
    "serving.pool.worker_deaths": "count",
    "serving.scheduler_ms": "ms",
    "runtime.build_engine_s": "s",
    "runtime.latency_probe_calls": "count",
    "runtime.latency_probe_ms": "ms",
    "runtime.run_batch_ms_per_seq": "ms",
    "runtime.plan_cache_hit_ratio": "fraction",
    "runtime.tune_cache_hit_ratio": "fraction",
    "cost.numerics_share": "fraction",
    **{name: "fraction" for name in layers.SHARE_GROUPS},
    **{f"attention.{s}_frac": "fraction"
       for s in layers.ATTENTION_CHOICES.values()},
    "gpu.modeled_us_per_seq": "us",
    "gpu.kernels_per_seq": "count",
    "ops.modeled_gflop_per_seq": "GFLOP",
    "ops.modeled_gb_per_seq": "GB",
    "obs.trace_overhead_frac": "fraction",
    "loadgen.late_p99_ms": "ms",
    "loadgen.sent": "count",
}


# ---- one run -----------------------------------------------------------------


@dataclass
class RunResult:
    """What ``run.py`` prints: metrics plus the attempted/failed counts."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    correct: bool
    problems: list[str] = field(default_factory=list)


def note(msg: str) -> None:
    """Progress on standard error (standard output ends with the result)."""
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def pct(xs: list[float], q: float) -> float:
    return float(np.percentile(xs, q)) if xs else 0.0


def peak_rss_mb(replicas: int) -> float:
    """This process's peak RSS plus ``replicas`` times the largest reaped
    child's (``getrusage`` keeps only the maximum over children)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + replicas * child) / 1024.0


class Runner:
    """Executes one workload for one seed and budget."""

    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool,
                 timeout_s: float) -> None:
        self.wl = wl
        self.seed = seed
        self.trace = trace
        self.timeout_s = timeout_s
        self.rounds = 1 if trace else SETUP_REPS
        self.sizes = wl.sizes(seconds, self.rounds)
        #: set-up times per stage ("thread", "pool", "grid"), one per round
        self.setups: dict[str, list[float]] = {
            kind: [] for kind in (*BACKENDS, "grid")}
        self.phases: list[PhaseResult] = []  # every live phase, in order
        self.overhead: list[PhaseResult] = []  # trace-overhead slices
        self.events: dict[str, EventLog] = {}
        self.pool_stats: dict[str, float] = {}
        self.prof = layers.Profiler() if trace else None
        self.windows: dict[str, layers.Snapshot] = {}

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, *key))

    def payloads(self, n: int, *key: int) -> list[np.ndarray]:
        return make_payloads(self.wl.live_model, n, self.rng(1, *key))

    def quiet(self):
        """Context for the benchmark's own checks: wrappers stay untimed."""
        return self.prof.paused() if self.prof else contextlib.nullcontext()

    def window(self, name: str, fn):
        """Run ``fn``, adding the profiler delta to window ``name``."""
        if self.prof is None:
            return fn()
        before = self.prof.snapshot()
        out = fn()
        delta = self.prof.snapshot() - before
        self.windows[name] = self.windows.get(name, layers.EMPTY) + delta
        return out

    # ---- stages -------------------------------------------------------------

    def live(self, k: int) -> None:
        """Round ``k`` of the live stage: set up, drive and stop the thread
        backend, then the pool, on the same inputs."""
        model = self.wl.live_model
        saturating = self.payloads(self.sizes["saturate"], 0, k)
        for kind in BACKENDS:
            events = EventLog() if self.trace else None
            extra = {} if events is None else {"events": events}
            t0 = time.perf_counter()
            backend = start_backend(kind, model, self.seed, self.timeout_s,
                                    **extra)
            self.setups[kind].append(time.perf_counter() - t0)
            window = "live" if kind == "thread" else "pool"
            try:
                if self.trace and self.wl.split["latency"] > 0:
                    self.drive(window, partial(
                        open_loop, backend,
                        self.payloads(self.sizes["open"], 1), OPEN_RATE),
                        kind, "open")
                self.drive(window, partial(saturate, backend, saturating),
                           kind, "saturate")
                if kind == "pool":
                    snap = backend.server.pool_snapshot()
                    self.pool_stats = {"start_s": backend.start_s,
                                       "steals": snap["steals"],
                                       "worker_deaths": snap["worker_deaths"]}
            finally:
                backend.stop()
            if events is not None:
                self.events[kind] = events

    def drive(self, window: str, run, kind: str, phase: str) -> None:
        """Run one live phase in profiler window ``window`` and keep it."""
        rng = self.rng(2, len(self.phases))
        result = self.window(window, lambda: run(rng, self.timeout_s,
                                                 self.quiet))
        self.phases.append(result)
        note(f"{kind} {self.wl.live_model.name} {phase}: "
             f"{result.attempted} requests in {result.elapsed_s:.2f} s")

    def trace_overhead(self) -> float:
        """Median over pairs of a thread saturating slice traced (wrappers
        and an EventLog) against the same slice plain, each on a freshly
        set-up and warmed backend. The order flips every pair, so neither
        side always runs on the warmer process."""
        n = self.sizes["saturate"] // 3
        ratios = []
        for k in range(OVERHEAD_PAIRS):
            payloads = self.payloads(n, 2, k)
            elapsed = {}
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                prof = layers.Profiler() if traced else None
                extra = {"events": EventLog()} if traced else {}
                backend = start_backend("thread", self.wl.live_model,
                                        self.seed, self.timeout_s, **extra)
                try:
                    if prof:
                        prof.install()
                    try:
                        result = saturate(backend, payloads, self.rng(3, k),
                                          self.timeout_s)
                    finally:
                        if prof:
                            prof.uninstall()
                finally:
                    backend.stop()
                self.overhead.append(result)
                elapsed[traced] = result.elapsed_s
            ratios.append(elapsed[True] / elapsed[False] - 1.0)
        note(f"trace overhead per pair: {[round(r, 3) for r in ratios]}")
        return statistics.median(ratios)

    def run(self) -> RunResult:
        wl = self.wl
        overhead = self.trace_overhead() if self.trace else None
        if self.prof:
            self.prof.install()
        plan0, tune0 = PLAN_CACHE.stats(), TUNE_CACHE.stats()
        price, sim = PriceResult(), SimResult()
        sim_events = EventLog() if self.trace else None
        blocks = grid_blocks(wl.grid, self.sizes["passes"])
        per_round = wl.replays // self.rounds
        checks = max(1, PRICE_CHECKS // self.rounds)
        try:
            start = self.prof.snapshot() if self.prof else None
            # Every round runs every stage, so the samples behind each
            # median are spread over the run and a slow spell of the host
            # moves only some of them.
            for k in range(self.rounds):
                self.live(k)
                gc.collect()  # one stage's garbage is not the next one's cost
                t0 = time.perf_counter()
                weights = grid_weights(wl.grid, self.seed)
                self.setups["grid"].append(time.perf_counter() - t0)
                self.window("price", lambda: price_grid(
                    price, wl.grid, weights, blocks[k::self.rounds], checks,
                    self.rng(4, k), self.quiet))
                del weights
                gc.collect()
                specs = [LoadgenSpec(engine="et",
                                     seed=self.seed * 100 + k * per_round + j,
                                     num_requests=self.sizes["sim"], **wl.sim)
                         for j in range(per_round)]
                self.window("sim", lambda: simulate(sim, specs, sim_events))
            for name, times in self.setups.items():
                note(f"{name} set-up: median {statistics.median(times):.2f} s")
            note(f"grid: {price.points} points in {price.elapsed_s:.2f} s; "
                 f"replay: {sim.requests} requests in {sim.elapsed_s:.2f} s")
            whole = self.prof.snapshot() - start if self.prof else None
        finally:
            if self.prof:
                self.prof.uninstall()
        plan = {k: PLAN_CACHE.stats()[k] - plan0[k] for k in plan0}
        tune = {k: TUNE_CACHE.stats()[k] - tune0[k] for k in tune0}

        # (attempted, failed) of every stage; ok_frac is the worst stage's
        # share, so a large stage cannot hide a small one's failures.
        stages = [(r.attempted, r.failed) for r in self.phases]
        stages += [(price.points, price.mismatches),
                   (sim.requests, sim.rejected)]
        attempted = sum(a for a, _ in stages)
        failed = sum(f for _, f in stages)
        problems = []
        live = self.phases + self.overhead
        errors = sum(r.errors for r in live)
        if errors:
            problems.append(f"{errors} live responses were not OK")
        mismatches = sum(r.mismatches for r in live)
        if mismatches:
            problems.append(f"{mismatches} served outputs differ from "
                            f"serial Engine.run")
        if price.mismatches:
            problems.append(f"{price.mismatches} grid prices differ from "
                            f"Engine.run(x).latency_us")
        if not sim.consistent:
            problems.append(f"virtual-time replay: completed {sim.completed}"
                            f" + rejected {sim.rejected} != "
                            f"{sim.requests} requests")
        if self.trace:
            metrics = self.per_layer(whole, plan, tune, overhead, problems)
        else:
            ok_frac = min((a - f) / a for a, f in stages)
            metrics = self.end_to_end(price, sim, ok_frac)
        return RunResult(metrics=metrics, attempted=attempted, failed=failed,
                         correct=not problems, problems=problems)

    # ---- metrics ------------------------------------------------------------

    def results(self, kind: str, phase: str) -> list[PhaseResult]:
        return [r for r in self.phases
                if r.backend == kind and r.phase == phase]

    def end_to_end(self, price, sim, ok_frac: float) -> dict[str, float]:
        out = {
            "setup_s": sum(statistics.median(t)
                           for t in self.setups.values()),
            "ok_frac": ok_frac,
            "peak_rss_mb": peak_rss_mb(WORKERS),
            "price_points_per_cpu_s": price.points_per_cpu_s,
            "sim_req_per_cpu_s": statistics.median(sim.rates),
            "sim_p50_us": sim.latency_us(50),
            "sim_p99_us": sim.latency_us(99),
            "sim_goodput_seq_s": statistics.median(sim.goodput_seq_s),
            "sim_slo_attainment": statistics.median(sim.slo_attainment),
        }
        for kind in BACKENDS:
            out[f"{kind}_seq_per_s"] = statistics.median(
                r.seq_per_s for r in self.results(kind, "saturate"))
        return {name: out[name] for name in END_TO_END}

    def per_layer(self, whole, plan, tune, overhead: float,
                  problems: list[str]) -> dict[str, float]:
        cost = self.windows["price"] + self.windows["sim"]
        out = layers.runtime_metrics(whole, self.windows["live"], cost,
                                     plan, tune)
        for group in layers.unfired(whole):
            problems.append(f"wrapper group {group} never fired")
        for kind in BACKENDS:
            results = [r for r in self.phases if r.backend == kind]
            p = f"serving.{kind}."
            lat = [x for r in self.results(kind, "open")
                   for x in r.latencies_ms]
            out[p + "open_p50_ms"] = pct(lat, 50)
            out[p + "open_p90_ms"] = pct(lat, 90)
            tries = sum(len(r.submit_us) + r.refused + r.retries
                        for r in results)
            out[p + "submit_us"] = float(np.median(
                [u for r in results for u in r.submit_us]))
            out[p + "refused_frac"] = sum(r.refused + r.retries
                                          for r in results) / tries
            out[p + "queue_ms_p50"] = pct([q for r in results
                                           for q in r.queue_ms], 50)
            out[p + "exec_ms_p50"] = pct([e for r in results
                                          for e in r.exec_ms], 50)
            events = self.events[kind]
            sizes = [e.size for e in events.events if e.kind == "dispatch"]
            out[p + "batch_size_mean"] = float(np.mean(sizes))
            falls = build_waterfalls(events)
            if not falls:
                problems.append(f"no waterfalls from the {kind} events")
            shares = stage_shares(falls)
            for s in SERVING_STAGES:
                out[f"{p}stage.{s}_share"] = shares[s]
        out.update({f"serving.pool.{k}": float(v)
                    for k, v in self.pool_stats.items()})
        out["obs.trace_overhead_frac"] = overhead
        out["loadgen.late_p99_ms"] = pct([x for r in self.phases
                                          for x in r.late_ms], 99)
        out["loadgen.sent"] = float(sum(len(r.submit_us)
                                        for r in self.phases))
        return {name: out[name] for name in PER_LAYER}
