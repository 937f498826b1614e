"""Benchmark support: Zipf workloads and table/JSON reporting."""

from repro.bench.workloads import zipf_recipient_weights
from repro.bench.reporting import format_table

__all__ = [
    "zipf_recipient_weights",
    "format_table",
]
