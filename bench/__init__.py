"""The repo benchmark: four workloads, end-to-end metrics from untraced
runs, per-layer metrics from a separate traced run.  See README.md here;
run with ``python3 -m bench`` from the repository root."""
