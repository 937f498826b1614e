"""Benchmark support: workload generators and table/JSON reporting."""

from repro.bench.workloads import WorkloadGenerator, zipf_recipient_weights
from repro.bench.reporting import format_table

__all__ = [
    "WorkloadGenerator",
    "zipf_recipient_weights",
    "format_table",
]
