"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_short --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is the result
object; everything before it (environment, notes) is informational. The
exit status is nonzero, and no result is printed, when the sources are
missing, an output check fails, something the run started outlives its
workload, or the run overruns ``--deadline`` seconds (replicas are
terminated first). See perfbench/README.md.

Importing this module has no side effects, so replica processes started
with the ``spawn`` method can re-import it safely.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Thread-count variables cleared so each library's default applies.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Default wall-clock deadline of one run (a run must end within 180 s).
DEADLINE_S = 170.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--deadline", type=float, default=DEADLINE_S,
                    help="abort (exit 3) after this many seconds")
    return ap.parse_args(argv)


def environment(seed: int) -> dict[str, object]:
    """What the numbers depend on besides the code: cores and libraries."""
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "seed": seed,
            "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS}}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no sources at {SRC}/repro; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before NumPy loads its BLAS
        os.environ.pop(var, None)
    sys.path[:0] = [ROOT, SRC]

    from perfbench.lifecycle import Lifecycle
    from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS, Runner

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; know "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print("perfbench env " + json.dumps(environment(args.seed)), flush=True)
    with Lifecycle(args.deadline) as life:
        runner = Runner(WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace), timeout_s=life.remaining_s())
        result = runner.run()
        life.check_clean()
    for problem in result.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
