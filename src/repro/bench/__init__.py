"""Benchmark infrastructure: characterization, harness, reporting.

The modules here are consumed by the ``benchmarks/`` suite — one
benchmark file per paper table/figure (see DESIGN.md §3).
"""

from repro.bench.characterize import (
    CharacterizationRow,
    characterize_all,
    characterize_extensions,
    characterize_op,
    measure_data_exchange,
)
from repro.bench.harness import AppRunRecord, run_app, run_suite
from repro.bench.reporting import comparison_table, format_table

__all__ = [
    "AppRunRecord",
    "CharacterizationRow",
    "characterize_all",
    "characterize_extensions",
    "characterize_op",
    "comparison_table",
    "format_table",
    "measure_data_exchange",
    "run_app",
    "run_suite",
]
