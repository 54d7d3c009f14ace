"""End-to-end and per-layer benchmark for the ``repro`` package.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds
<s> --trace <0|1>`` from the repository root; see ``perfbench/README.md``.
Nothing here is imported by the package under test: the benchmark
drives ``repro`` from the outside through its public entry points.
"""
