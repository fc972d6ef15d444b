"""The repo benchmark: workloads, harness, outside-in tracing, comparison."""
