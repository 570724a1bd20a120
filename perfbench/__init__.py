"""Benchmark for verba: workloads, correctness gates and an outside-in tracer.

Run it with ``python3 perfbench/run.py --workload <suite|frontier|queries|all>``;
see ``perfbench/README.md``.  Nothing here imports verba at module level, so
the time to import it can be measured as part of set-up.
"""
