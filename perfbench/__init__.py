"""End-to-end and per-layer benchmark of the PRI reproduction.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` is the
contract (workloads, metrics, bounds) and records why each workload
exists.
"""
