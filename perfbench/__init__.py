"""The repository benchmark: end-to-end workloads plus a traced per-layer run.

Run it from the repository root::

    python3 perfbench/run.py --workload invoke --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and layer map.
"""
