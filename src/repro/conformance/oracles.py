"""The three-oracle hierarchy the conformance suite differences against.

Every operation (and every application) is pushed through three
independently implemented result paths:

1. **float oracle** — exact float64 NumPy semantics of the requested
   math, no quantization anywhere.  This is the paper's "CPU exact"
   column that Tables 4/5 measure MAPE/RMSE against.
2. **int8 reference** — the per-tile
   :class:`~repro.conformance.reference.ReferenceTensorizer`, which
   lowers tile by tile and executes each tile through the
   :mod:`repro.edgetpu.functional` integer kernels.  This is the
   simplest trustworthy rendering of the device's 8-bit arithmetic:
   one tile, one kernel call, no batching, no scratch reuse, no
   coalescing.
3. **pipeline** — the full production path: batched-tile lowering,
   dispatch-group formation, and a discrete-event replay of the
   instruction stream on the simulated platform
   (:meth:`repro.runtime.api.OpenCtpu.sync`), exactly what applications
   and the serving layer run.

The conformance contract between them:

* paths 2 and 3 must agree **bit-for-bit** (``tobytes`` equality) —
  the batched machinery is a pure performance transform;
* both must sit inside the codified Table 4/5 error envelopes
  (:mod:`repro.metrics.errors`) against path 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.config import SystemConfig
from repro.conformance.reference import reference_runtime
from repro.host.platform import Platform
from repro.metrics.errors import BoundCheck, ErrorBound
from repro.runtime.api import OpenCtpu


def scalar_context(tpus: int = 1) -> OpenCtpu:
    """A fresh runtime whose Tensorizer is the per-tile reference."""
    return reference_runtime(Platform(SystemConfig().with_tpus(tpus)))


def pipeline_context(tpus: int = 1) -> OpenCtpu:
    """A fresh runtime on the full production path."""
    return OpenCtpu(Platform(SystemConfig().with_tpus(tpus)))


def _as_array(value) -> np.ndarray:
    """Normalize op outputs (arrays or scalars) for byte-level compare."""
    return np.atleast_1d(np.asarray(value, dtype=np.float64))


@dataclass(frozen=True)
class OracleOutcome:
    """One operation's results across the three oracles, plus verdicts."""

    #: Exact float64 reference (oracle 1).
    float_reference: np.ndarray
    #: Scalar-lowering int8 result (oracle 2).
    int8_reference: np.ndarray
    #: Full vectorized pipeline result (oracle 3).
    pipeline: np.ndarray
    #: Error metrics of the pipeline result against the float oracle.
    check: BoundCheck
    #: Device instructions the pipeline lowering emitted.
    instructions: int

    @property
    def bit_identical(self) -> bool:
        """True when the two int8 paths agree byte-for-byte."""
        return (
            self.int8_reference.shape == self.pipeline.shape
            and self.int8_reference.tobytes() == self.pipeline.tobytes()
        )

    @property
    def ok(self) -> bool:
        """Conformance verdict: bit-identity and in-envelope accuracy."""
        return self.bit_identical and self.check.ok


def run_oracles(
    invoke: Callable[[OpenCtpu], object],
    float_reference: np.ndarray,
    bound: ErrorBound,
    tpus: int = 1,
    sync: bool = True,
) -> OracleOutcome:
    """Drive *invoke* through oracles 2 and 3 and difference all three.

    *invoke* receives a fresh :class:`OpenCtpu` and returns the
    operation's host-visible result; it is called twice, once per int8
    path.  ``sync=True`` (default) also replays the lowered instruction
    stream on the discrete-event platform so the scheduler/executor
    layers are part of the conformance surface, not just the Tensorizer.
    """
    ref = _as_array(float_reference)

    scalar_ctx = scalar_context(tpus)
    int8_ref = _as_array(invoke(scalar_ctx))
    if sync and scalar_ctx.pending_operations:
        scalar_ctx.sync()

    pipe_ctx = pipeline_context(tpus)
    pipe = _as_array(invoke(pipe_ctx))
    instructions = 0
    if sync and pipe_ctx.pending_operations:
        instructions = pipe_ctx.sync().timeline.instructions

    return OracleOutcome(
        float_reference=ref,
        int8_reference=int8_ref,
        pipeline=pipe,
        check=bound.check(pipe, ref),
        instructions=instructions,
    )


def app_oracles(
    app,
    inputs,
    bound: ErrorBound,
    tpus: int = 1,
) -> tuple:
    """Three-oracle run of one Table 3 application.

    Returns ``(outcome, cpu_result, pipeline_result)`` where *outcome*
    is the :class:`OracleOutcome` over the app's final values, and the
    two result objects keep the timing/energy detail for reporting.
    """
    scalar_ctx = scalar_context(tpus)
    pipe_ctx = pipeline_context(tpus)

    cpu_res = app.run_cpu(inputs, pipe_ctx.platform.cpu)
    int8_res = app.run_gptpu(inputs, scalar_ctx)
    pipe_res = app.run_gptpu(inputs, pipe_ctx)

    ref = _as_array(cpu_res.value)
    outcome = OracleOutcome(
        float_reference=ref,
        int8_reference=_as_array(int8_res.value),
        pipeline=_as_array(pipe_res.value),
        check=bound.check(_as_array(pipe_res.value), ref),
        instructions=pipe_res.instructions,
    )
    return outcome, cpu_res, pipe_res


def derive_rng(seed: int, *path: object) -> np.random.Generator:
    """Deterministic RNG for one conformance case.

    Every stream is derived from ``--seed`` plus a stable string path
    (no wall clock, no OS entropy), so any reported failure reproduces
    exactly from the seed recorded in the JSON report.
    """
    material = [int(seed)] + [
        int.from_bytes(str(p).encode(), "little") % (2**32) for p in path
    ]
    return np.random.default_rng(np.random.SeedSequence(material))
