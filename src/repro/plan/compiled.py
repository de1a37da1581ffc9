"""Compiled lowering plans: the AOT capture half of the Tensorizer.

A :class:`CompiledPlan` freezes everything about lowering one operation
that does **not** depend on the operand *values*: the tiling geometry
and the instruction-group records (with the data-source and task
identity left as placeholders) — and, for conv2D GEMMs, the quantized
model operand together with the operand it was taken from.  Replaying
a plan therefore only needs per-request input quantization and binding
the templates to the request's identity; re-tiling, instruction
costing, and model builds are amortized into the one capture (the
executorch-style delegation split, ROADMAP item 1).

What stays per-request by construction: input quant params (they are
functions of the data), measured output bounds, the integrity checks,
the host-transform cost, and the requantize arithmetic — so a replayed
result is bit-identical to fresh lowering (``repro conformance --suite
plans`` enforces it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.plan.operand import hold_operand, same_operand

#: Placeholder tokens substituted at bind time.
SRC_TOKEN = "{src}"
TASK_TOKEN = "{task}"
MODEL_SRC_TOKEN = "{msrc}"

#: Plan kinds: a dedicated fast-replay path exists for conv2D GEMMs;
#: every other vectorized rule replays generically (the rule re-runs
#: with model builds amortized to zero).
KIND_GENERIC = "generic"
KIND_GEMM = "gemm_conv2d"
KINDS = (KIND_GENERIC, KIND_GEMM)


@dataclass(frozen=True)
class InstrTemplate:
    """One instruction-group record: a ``LoweredInstr`` minus its
    per-request identity (source buffer, task id, model source).

    The Tensorizer binds it back (``runtime.tensorizer._bind_template``)
    by substituting the placeholder tokens in the three key strings."""

    opname: str
    label: str
    #: Key strings with ``{src}`` / ``{task}`` / ``{msrc}`` placeholders.
    group_key: str
    cache_key: str
    model_cache_key: str
    data_bytes: int
    model_bytes: int
    out_bytes: int
    count: int
    #: Capture-time model-build cost; a replay binds 0.0 (the §6.2.3
    #: build happened once, at capture — that is the point of the plan).
    model_build_seconds: float
    exec_seconds: float


@dataclass(frozen=True)
class GemmGeometry:
    """The §7.1.2 conv2D-GEMM partitioning, captured once."""

    m: int
    n: int
    k: int
    #: Stride: ceil(sqrt(n)) — rows reshape into s×s sub-matrices.
    s: int
    rows_per_chunk: int
    batch: int

    @property
    def row_starts(self) -> List[int]:
        return list(range(0, self.m, self.rows_per_chunk))

    @property
    def col_starts(self) -> List[int]:
        return list(range(0, self.k, self.batch))


@dataclass
class GemmModelBlock:
    """The quantized model operand cached with a GEMM plan (SCALE mode).

    ``q_b`` holds the int8-valued (float32-stored) quantized weights —
    exactly the bytes §3.3 would ship to the device — plus the per
    kernel-batch scales and the operand's value range.  ``b_held`` is
    what :func:`~repro.plan.operand.hold_operand` kept of the operand
    they were taken from.  The block lives only in memory: a plan blob
    carries no operand to compare against, so it never ships one.
    """

    q_b: np.ndarray  # float32 (n, k), integer-valued in [-127, 127]
    col_scales: np.ndarray  # float64, one per kernel batch
    b_lo: float
    b_hi: float
    b_held: np.ndarray

    def matches(self, b: np.ndarray) -> bool:
        """Is *b* the operand this block quantized, unchanged?"""
        return same_operand(self.b_held, b)


def model_block_for(
    b: np.ndarray, q_b: np.ndarray, col_scales: np.ndarray, b_lo: float, b_hi: float
) -> GemmModelBlock:
    """Build a model block from a just-quantized operand."""
    return GemmModelBlock(
        q_b=q_b,
        col_scales=np.asarray(col_scales, dtype=np.float64).copy(),
        b_lo=float(b_lo),
        b_hi=float(b_hi),
        b_held=hold_operand(b),
    )


@dataclass
class CompiledPlan:
    """Everything lowering derived that survives across requests."""

    signature: str
    kind: str
    opname: str
    templates: List[InstrTemplate] = field(default_factory=list)
    geometry: Optional[GemmGeometry] = None
    #: Cached quantized model operand (GEMM plans, SCALE quant only —
    #: GLOBAL scales depend on the data operand too; runtime-only, not
    #: serialized).
    model: Optional[GemmModelBlock] = None
    #: Lifetime replay count for this plan (runtime-only, not serialized).
    replays: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown plan kind {self.kind!r}")
        if self.kind == KIND_GEMM and self.geometry is None:
            raise ValueError("a gemm_conv2d plan needs its geometry")

    @property
    def instruction_count(self) -> int:
        return len(self.templates)

    def without_runtime_state(self) -> "CompiledPlan":
        """A copy safe to compare against a deserialized plan."""
        return CompiledPlan(
            signature=self.signature,
            kind=self.kind,
            opname=self.opname,
            templates=list(self.templates),
            geometry=self.geometry,
        )
