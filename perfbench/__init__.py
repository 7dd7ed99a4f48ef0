"""End-to-end and per-layer benchmark of the reproduction.

Run with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the root of a checkout; see
``perfbench/NOTES.md`` for the workloads and the metrics.
"""
