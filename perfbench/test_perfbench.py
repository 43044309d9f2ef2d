"""Lifecycle and format tests for the benchmark.

Run from the repository root with ``python -m pytest perfbench -q``; each
test starts the benchmark as a subprocess in its own session and checks
what survives it.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench.lifecycle import OVERRUN_EXIT  # noqa: E402
from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from repro.runtime.shm import segment_exists  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT, timeout: float = 170.0):
    """Run ``perfbench/run.py`` in a new session; return it and its pgid."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err, proc.pid


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def assert_nothing_left(pgid: int, err: str, pool_started: bool = True
                        ) -> None:
    """No process of the run's session and no announced segment remain."""
    deadline = time.monotonic() + 5.0
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.1)  # orphans are reaped by init, not instantly
    assert not group_alive(pgid), "a process of the run outlived it"
    segments = [line.split()[-1] for line in err.splitlines()
                if line.startswith("perfbench: shm segment ")]
    assert segments or not pool_started, "the run announced no segment"
    leaked = [s for s in segments if segment_exists(s)]
    assert not leaked, f"segments outlived the run: {leaked}"


def result_line(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_normal_run_reports_every_metric_and_leaves_nothing():
    rc, out, err, pgid = run_bench("--workload", "serve_short", "--seed",
                                   "1", "--seconds", "2", "--trace", "0")
    assert rc == 0, err
    res = result_line(out)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert set(res["metrics"]) == set(END_TO_END)
    for name, m in res["metrics"].items():
        assert m["unit"] == END_TO_END[name]
        assert m["value"] > 0, name
    assert "perfbench env " in out
    assert_nothing_left(pgid, err)


def test_traced_run_prints_every_per_layer_metric():
    rc, out, err, pgid = run_bench("--workload", "serve_short", "--seed",
                                   "2", "--seconds", "2", "--trace", "1")
    assert rc == 0, err
    res = result_line(out)
    assert res["correct"] is True
    assert set(res["metrics"]) == set(PER_LAYER)
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    for name in ("serving.thread.open_p50_ms", "serving.pool.open_p90_ms",
                 "tensor.tile_bcsr_matmul_share", "serving.scheduler_ms",
                 "runtime.latency_probe_calls", "gpu.kernels_per_seq"):
        assert metrics[name] > 0, name
    assert_nothing_left(pgid, err)


def test_overrun_terminates_replicas_and_exits_nonzero():
    # With two seconds of work the deadline falls inside the pool's set-ups.
    rc, out, err, pgid = run_bench("--workload", "serve_short", "--seed",
                                   "3", "--seconds", "2", "--trace", "0",
                                   "--deadline", "5")
    assert rc == OVERRUN_EXIT, err
    assert '"metrics"' not in out
    assert "overran" in err
    assert_nothing_left(pgid, err, pool_started=False)


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    rc, out, err, pgid = run_bench("--workload", "serve_short", "--seed",
                                   "1", "--seconds", "2", "--trace", "0",
                                   cwd=tmp_path, timeout=60)
    assert rc != 0
    assert '"metrics"' not in out
    assert not group_alive(pgid)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25

