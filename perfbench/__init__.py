"""The repository benchmark: three workloads, gated end-to-end metrics and
an outside-in traced run per layer.  Run ``python3 perfbench/run.py
--help``; ``perfbench/README.md`` describes the workloads and metrics."""
