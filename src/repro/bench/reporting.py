"""Plain-text table formatting for the benchmark reports.

Benchmarks print the same rows/series the paper's tables and figures
show, side by side with the paper's published values so deviations are
visible at a glance (EXPERIMENTS.md archives the output).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.telemetry import SpanTracer, attribution


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Render an aligned fixed-width text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells, expected {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_attribution(tracer: SpanTracer, title: str = "Telemetry attribution") -> str:
    """The flat per-phase span table ``repro profile`` and ``repro trace`` print."""
    rows = [
        (
            r["cat"],
            r["name"],
            r["count"],
            f"{r['host_seconds'] * 1e3:.3f}",
            f"{r['device_seconds'] * 1e3:.3f}",
        )
        for r in attribution(tracer)
    ]
    return format_table(
        ["cat", "span", "count", "host ms", "device ms"], rows, title=title
    )


def comparison_table(
    title: str,
    rows: Iterable[Sequence[object]],
    value_name: str = "measured",
) -> str:
    """Table of (label, paper value, measured value) with deviation."""
    out_rows = []
    for label, paper, measured in rows:
        if paper in (None, ""):
            out_rows.append((label, "-", _fmt(measured), "-"))
        else:
            dev = (measured - paper) / paper * 100.0 if paper else float("nan")
            out_rows.append((label, _fmt(paper), _fmt(measured), f"{dev:+.1f}%"))
    return format_table(
        ["experiment", "paper", value_name, "deviation"], out_rows, title=title
    )


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0.00"
        magnitude = abs(cell)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{cell:.3g}"
        return f"{cell:.2f}" if magnitude >= 0.1 else f"{cell:.4f}"
    return str(cell)
