"""Structured tracing of the simulated timeline.

The GPTPU reproduction models time explicitly: Edge TPU instruction
execution, PCIe DMA transfers, Tensorizer model builds, and CPU
aggregation all advance a simulated clock (``Platform.now``) so that
the runtime can overlap them exactly as the paper's runtime does
(§6.2.3: "overlap Edge TPU matrix-input data movements with
Tensorizer").  Every modeled activity lands here as one
:class:`TraceRecord`; the energy model and the profiles read them back.
"""

from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "TraceRecord",
    "Tracer",
]
