"""The repository benchmark: live serving, grid pricing and virtual-time
replay, timed from outside through the public API of ``repro``.

Run it with ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1``; see ``perfbench/README.md`` for the workloads and metrics.
"""
