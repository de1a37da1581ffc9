"""Post-run profiling over the simulation trace.

Turns a platform's :class:`~repro.sim.trace.Tracer` records into the
summaries a performance engineer asks for first: where did the time go
(per activity kind, per opcode), how busy was each device, and how much
of the wall was spent moving data vs computing — the paper's recurring
diagnosis ("the data-movement overhead dominates end-to-end application
latency", §9.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.bench.reporting import format_table
from repro.sim.trace import Tracer


@dataclass(frozen=True)
class ProfileReport:
    """Aggregated view of one run's trace."""

    wall_seconds: float
    #: Busy seconds per hardware unit (interval union).
    unit_busy: Mapping[str, float]
    #: Total activity seconds per kind (transfer/instruction/...; summed,
    #: so concurrent activities count multiply).
    kind_seconds: Mapping[str, float]
    #: Device-execution seconds per opcode.
    opcode_seconds: Mapping[str, float]
    #: Instructions executed per opcode (bursts expanded).
    opcode_counts: Mapping[str, int]

    @property
    def tpu_utilization(self) -> float:
        """Mean busy fraction across Edge TPUs (0..1)."""
        tpus = {u: b for u, b in self.unit_busy.items() if u.startswith("tpu")}
        if not tpus or self.wall_seconds <= 0:
            return 0.0
        return sum(tpus.values()) / (len(tpus) * self.wall_seconds)

    @property
    def transfer_fraction(self) -> float:
        """Transfer activity relative to device execution activity."""
        compute = self.kind_seconds.get("instruction", 0.0)
        transfer = self.kind_seconds.get("transfer", 0.0)
        if compute + transfer == 0:
            return 0.0
        return transfer / (compute + transfer)


def profile_trace(tracer: Tracer, since: float = 0.0) -> ProfileReport:
    """Summarize all records in *tracer* starting at or after *since*."""
    records = [r for r in tracer if r.start >= since]
    span_end = max((r.end for r in records), default=since)
    kind_seconds: Dict[str, float] = {}
    opcode_seconds: Dict[str, float] = {}
    opcode_counts: Dict[str, int] = {}
    for rec in records:
        kind_seconds[rec.kind] = kind_seconds.get(rec.kind, 0.0) + rec.duration
        if rec.kind == "instruction":
            opcode = str(rec.meta.get("opcode", "?"))
            opcode_seconds[opcode] = opcode_seconds.get(opcode, 0.0) + rec.duration
            opcode_counts[opcode] = opcode_counts.get(opcode, 0) + int(rec.meta.get("count", 1))
    return ProfileReport(
        wall_seconds=span_end - since,
        unit_busy=tracer.busy_seconds(since=since),
        kind_seconds=kind_seconds,
        opcode_seconds=opcode_seconds,
        opcode_counts=opcode_counts,
    )


def format_profile(report: ProfileReport) -> str:
    """Human-readable profile block."""
    lines = [
        f"wall time: {report.wall_seconds * 1e3:.3f} ms    "
        f"TPU utilization: {report.tpu_utilization * 100:.1f}%    "
        f"transfer share: {report.transfer_fraction * 100:.1f}%",
    ]
    if report.opcode_seconds:
        rows = [
            (op, report.opcode_counts.get(op, 0), f"{secs * 1e3:.3f} ms")
            for op, secs in sorted(
                report.opcode_seconds.items(), key=lambda kv: -kv[1]
            )
        ]
        lines.append(format_table(["opcode", "instructions", "device time"], rows))
    if report.unit_busy:
        rows = [
            (unit, f"{busy * 1e3:.3f} ms")
            for unit, busy in sorted(report.unit_busy.items())
        ]
        lines.append(format_table(["unit", "busy"], rows))
    return "\n\n".join(lines)


def format_tensorizer_stats(stats) -> str:
    """Host-side lowering counters (``TensorizerStats``) as a table.

    Makes lowering observable without a profiler: how many tiles each
    run lowered, and how many went through batched NumPy kernels vs
    per-tile scratch-device dispatches.
    """
    rows = [
        ("operations lowered", stats.operations_lowered),
        ("instructions emitted", stats.instructions_emitted),
        ("tiles lowered", stats.tiles_lowered),
        ("batched dispatches", stats.batched_dispatches),
        ("scalar dispatches", stats.scalar_dispatches),
        ("saturated values", stats.saturated_values),
    ]
    return format_table(["tensorizer counter", "value"], rows)
