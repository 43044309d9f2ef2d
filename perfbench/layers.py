"""Traced runs: wrappers around ``repro``'s layers and the per-layer metrics.

A :class:`Profiler` replaces functions with timing wrappers for the span of
a traced run and restores them afterwards. Each wrapper sits at the name
its caller actually resolves: module globals that engines import by name
(``repro.runtime.et.tile_gemm``, ``repro.attention.onthefly.softmax``),
class attributes looked up through the instance (``TileBCSR.matmul``,
``Engine.run_batch``), or the module attribute a local import re-reads on
every call (``repro.ops.elementwise.gelu``).

Time is kept as *self time*: a wrapper's duration minus the time its
wrapped callees took, per thread, so the groups partition what they cover
and nothing is counted twice. Runs through ``Engine.run_batch`` are also
read for their modeled cost (Timeline records) and attention choices.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import defaultdict

#: Wrapped call sites per group: (module, class or None, attribute).
WRAP_POINTS: dict[str, tuple[tuple[str, str | None, str], ...]] = {
    "tensor.tile_bcsr_matmul": (
        ("repro.tensor.sparse", "TileBCSR", "matmul"),),
    "ops.dense_gemm": (
        ("repro.runtime.et", None, "gemm_bias_act"),
        ("repro.runtime.et", None, "packed_gemm_bias_act"),
        ("repro.runtime.pytorch_like", None, "gemm"),
        ("repro.runtime.pytorch_like", None, "packed_gemm_bias_act"),
        ("repro.runtime.tensorrt_like", None, "gemm_bias_act"),
        ("repro.runtime.tensorrt_like", None, "packed_gemm_bias_act"),
        ("repro.runtime.fastertransformer_like", None, "gemm_bias_act"),
        ("repro.runtime.fastertransformer_like", None,
         "packed_gemm_bias_act"),
    ),
    "ops.pruned_gemm": (
        ("repro.runtime.et", None, "tile_gemm"),
        ("repro.runtime.et", None, "row_pruned_gemm"),
        ("repro.runtime.et", None, "col_pruned_gemm"),
        ("repro.runtime.et", None, "irregular_gemm"),
    ),
    "ops.softmax": (
        ("repro.attention.onthefly", None, "softmax"),
        ("repro.attention.partial", None, "softmax"),
        ("repro.attention.flash", None, "online_softmax_update"),
        ("repro.attention.fused", None, "masked_softmax"),
        ("repro.attention.fused", None, "packed_masked_softmax"),
        ("repro.attention.unfused", None, "softmax"),
        ("repro.attention.unfused", None, "softmax_rows"),
    ),
    "ops.layernorm": (
        ("repro.runtime.et", None, "layer_norm_op"),
        ("repro.runtime.et", None, "packed_layer_norm"),
        ("repro.runtime.pytorch_like", None, "layer_norm_op"),
        ("repro.runtime.pytorch_like", None, "packed_layer_norm"),
        ("repro.runtime.tensorrt_like", None, "layer_norm_op"),
        ("repro.runtime.tensorrt_like", None, "packed_layer_norm"),
    ),
    "ops.gelu": (("repro.ops.elementwise", None, "gelu"),),
    "attention": (
        ("repro.runtime.et", None, "select_attention"),
        ("repro.runtime.et", None, "packed_select_attention"),
        ("repro.runtime.pytorch_like", None, "unfused_attention"),
        ("repro.runtime.pytorch_like", None, "packed_unfused_attention"),
        ("repro.runtime.tensorrt_like", None, "fused_attention"),
        ("repro.runtime.tensorrt_like", None, "packed_fused_attention"),
        ("repro.runtime.fastertransformer_like", None, "fused_attention"),
        ("repro.runtime.fastertransformer_like", None,
         "packed_fused_attention"),
    ),
    "runtime.build_engine": (("repro.runtime.engine", "Engine", "__init__"),),
    "runtime.run_batch": (("repro.runtime.engine", "Engine", "run_batch"),),
    "runtime.latency_probe": (
        ("repro.runtime.engine", "Engine", "latency_us"),),
    "runtime.run": (("repro.runtime.engine", "Engine", "run"),),
    "serving.scheduler": (("repro.serving.scheduler", "Scheduler", "run"),),
}

#: Groups whose inclusive time is engine time (the share denominator).
ENGINE_GROUPS = ("runtime.run_batch", "runtime.latency_probe", "runtime.run")

#: Groups reported as shares of engine time.
SHARE_GROUPS = {
    "tensor.tile_bcsr_matmul_share": "tensor.tile_bcsr_matmul",
    "ops.dense_gemm_share": "ops.dense_gemm",
    "ops.pruned_gemm_share": "ops.pruned_gemm",
    "ops.softmax_share": "ops.softmax",
    "ops.layernorm_share": "ops.layernorm",
    "ops.gelu_share": "ops.gelu",
    "attention.share": "attention",
}

#: Attention choice names in ``EngineResult.choices`` -> metric suffix.
ATTENTION_CHOICES = {"otf": "otf", "partial_otf": "partial", "flash": "flash"}


class Snapshot:
    """Cumulative totals at one instant; subtract two for a window."""

    def __init__(self, self_s: dict, incl_s: dict, calls: dict,
                 counts: dict) -> None:
        self.self_s = self_s
        self.incl_s = incl_s
        self.calls = calls
        self.counts = counts

    def __sub__(self, other: "Snapshot") -> "Snapshot":
        def diff(a: dict, b: dict) -> dict:
            return {k: a[k] - b.get(k, 0) for k in a}
        return Snapshot(diff(self.self_s, other.self_s),
                        diff(self.incl_s, other.incl_s),
                        diff(self.calls, other.calls),
                        diff(self.counts, other.counts))

    def __add__(self, other: "Snapshot") -> "Snapshot":
        def add(a: dict, b: dict) -> dict:
            return {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}
        return Snapshot(add(self.self_s, other.self_s),
                        add(self.incl_s, other.incl_s),
                        add(self.calls, other.calls),
                        add(self.counts, other.counts))

    @property
    def engine_s(self) -> float:
        return sum(self.incl_s.get(g, 0.0) for g in ENGINE_GROUPS)

    def share(self, group: str) -> float:
        engine = self.engine_s
        return self.self_s.get(group, 0.0) / engine if engine > 0 else 0.0


EMPTY = Snapshot({}, {}, {}, {})


class Profiler:
    """Installs the wrappers; accumulates self time, calls and counts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._self_s: dict[str, float] = defaultdict(float)
        self._incl_s: dict[str, float] = defaultdict(float)
        self._calls: dict[str, int] = defaultdict(int)
        self._counts: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []
        self.paused_flag = False

    # ---- install ------------------------------------------------------------

    def install(self) -> "Profiler":
        for group, points in WRAP_POINTS.items():
            for module, cls, attr in points:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                orig = owner.__dict__[attr] if cls is not None \
                    else getattr(owner, attr)
                if group == "runtime.run_batch":
                    wrapper = self._wrap(group, orig, self._read_batch)
                else:
                    wrapper = self._wrap(group, orig)
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    @contextlib.contextmanager
    def paused(self):
        """Let wrapped calls through untimed (the benchmark's own checks)."""
        self.paused_flag = True
        try:
            yield
        finally:
            self.paused_flag = False

    # ---- wrappers -----------------------------------------------------------

    def _wrap(self, group: str, fn, on_result=None):
        prof = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prof.paused_flag:
                return fn(*args, **kwargs)
            stack = getattr(prof._local, "stack", None)
            if stack is None:
                stack = prof._local.stack = []
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                with prof._lock:
                    prof._self_s[group] += dur - child
                    prof._incl_s[group] += dur
                    prof._calls[group] += 1
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def _read_batch(self, out) -> None:
        """Modeled cost and attention choices of one ``run_batch``."""
        results, _agg = out
        add: dict[str, float] = defaultdict(float)
        for res in results:
            add["seqs"] += 1
            records = res.timeline.records
            add["modeled_us"] += res.timeline.total_time_us
            add["kernels"] += len(records)
            add["flops"] += sum(r.cost.flops for r in records)
            add["bytes"] += sum(r.cost.bytes_loaded + r.cost.bytes_stored
                                for r in records)
            for choice in res.choices.values():
                add["choice." + choice] += 1
                add["choices"] += 1
        with self._lock:
            for k, v in add.items():
                self._counts[k] += v

    # ---- reading ------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        with self._lock:
            return Snapshot(dict(self._self_s), dict(self._incl_s),
                            dict(self._calls), dict(self._counts))


def unfired(snap: Snapshot) -> list[str]:
    """Groups whose wrappers never ran in ``snap`` (a layer reading zero)."""
    return sorted(g for g in WRAP_POINTS if snap.calls.get(g, 0) == 0
                  and g != "runtime.run")


def runtime_metrics(whole: Snapshot, window: Snapshot, cost: Snapshot,
                    plan: dict[str, int], tune: dict[str, int]
                    ) -> dict[str, float]:
    """Per-layer metrics of the runtime, ops, attention, tensor and gpu
    layers. ``whole`` covers set-up too, ``window`` the thread backend's
    live phases, ``cost`` the pricing and replay stages."""
    c = window.counts
    seqs = c.get("seqs", 0.0)
    per_seq = (lambda v: v / seqs) if seqs else (lambda v: 0.0)
    choices = c.get("choices", 0.0)
    out = {
        "runtime.build_engine_s": whole.incl_s.get("runtime.build_engine",
                                                   0.0),
        "runtime.latency_probe_calls": float(
            whole.calls.get("runtime.latency_probe", 0)),
        "runtime.latency_probe_ms": whole.incl_s.get(
            "runtime.latency_probe", 0.0) * 1e3,
        "runtime.run_batch_ms_per_seq": per_seq(
            window.incl_s.get("runtime.run_batch", 0.0) * 1e3),
        "runtime.plan_cache_hit_ratio": ratio(plan["hits"],
                                              plan["hits"] + plan["misses"]),
        "runtime.tune_cache_hit_ratio": ratio(tune["hits"],
                                              tune["hits"] + tune["misses"]),
        "serving.scheduler_ms": whole.self_s.get("serving.scheduler",
                                                 0.0) * 1e3,
        "gpu.modeled_us_per_seq": per_seq(c.get("modeled_us", 0.0)),
        "gpu.kernels_per_seq": per_seq(c.get("kernels", 0.0)),
        "ops.modeled_gflop_per_seq": per_seq(c.get("flops", 0.0)) / 1e9,
        "ops.modeled_gb_per_seq": per_seq(c.get("bytes", 0.0)) / 1e9,
    }
    for name, group in SHARE_GROUPS.items():
        out[name] = window.share(group)
    out["cost.numerics_share"] = sum(cost.share(g)
                                     for g in SHARE_GROUPS.values())
    for choice, suffix in ATTENTION_CHOICES.items():
        out[f"attention.{suffix}_frac"] = ratio(c.get("choice." + choice, 0.0),
                                                choices)
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
