"""Whole-stack benchmark of the Eventor reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload offline_map --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and how the
traced run attributes wall time to layers.
"""
