"""Compiled lowering plans: the AOT capture half of the Tensorizer.

A :class:`CompiledPlan` freezes everything about lowering one operation
that does **not** depend on the operand *values*: the tiling geometry,
the instruction-group records (with the data-source and task identity
left as placeholders), the integrity-check layout, and — for conv2D
GEMMs — the quantized model operand itself.  Replaying a plan therefore
only needs per-request input quantization and binding the templates to
the request's identity; re-tiling, instruction costing, and model
builds are amortized into the one capture (the executorch-style
delegation split, ROADMAP item 1).

What stays per-request by construction: input quant params (they are
functions of the data), measured output bounds, and the requantize
arithmetic — so a replayed result is bit-identical to fresh lowering
(``repro conformance --suite plans`` enforces it).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

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
class IntegrityTemplate:
    """Checksum-plan layout for one GEMM piece (values are per-request)."""

    label: str
    rows: Tuple[int, int]
    cols: Tuple[int, int]


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
    kernel-batch scales and the operand's value range.  ``b_ref`` is the
    capture-time array for a fast identity check; it is not serialized
    (a deserialized plan matches by value instead).
    """

    q_b: np.ndarray  # float32 (n, k), integer-valued in [-127, 127]
    col_scales: np.ndarray  # float64, one per kernel batch
    b_lo: float
    b_hi: float
    b_digest: bytes  # sha256 of the normalized operand's raw bytes
    b_ref: Optional[np.ndarray] = None

    def matches(self, b: np.ndarray) -> bool:
        """Is *b* the operand this block quantized?  Identity first (the
        serving hot path shares one weight matrix object), then the
        capture-time content digest.

        The digest — never value equality against ``b_ref`` — is the
        authoritative fallback: ``b_ref`` may be a zero-copy view into a
        shared-memory ring (the multi-process data plane), and once the
        producer recycles that block, ``b_ref`` silently aliases a
        *newer* request's bytes.  Comparing ``b`` against those bytes
        would match any operand that happens to live at the same offset;
        the digest was taken from the operand actually quantized and
        cannot alias.
        """
        if self.b_ref is not None and b is self.b_ref:
            return True
        if b.shape != self.q_b.shape:
            return False
        return hashlib.sha256(b.tobytes()).digest() == self.b_digest


def model_block_for(
    b: np.ndarray, q_b: np.ndarray, col_scales: np.ndarray, b_lo: float, b_hi: float
) -> GemmModelBlock:
    """Build a model block from a just-quantized operand."""
    return GemmModelBlock(
        q_b=q_b,
        col_scales=np.asarray(col_scales, dtype=np.float64).copy(),
        b_lo=float(b_lo),
        b_hi=float(b_hi),
        b_digest=hashlib.sha256(b.tobytes()).digest(),
        b_ref=b,
    )


@dataclass
class CompiledPlan:
    """Everything lowering derived that survives across requests."""

    signature: str
    kind: str
    opname: str
    #: Host data-transformation cost (§7.1.3), a pure function of shape.
    cpu_seconds: float
    templates: List[InstrTemplate] = field(default_factory=list)
    integrity_mode: str = "off"
    integrity: List[IntegrityTemplate] = field(default_factory=list)
    geometry: Optional[GemmGeometry] = None
    #: Cached quantized model operand (GEMM plans, SCALE quant only —
    #: GLOBAL scales depend on the data operand too).
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
        model = self.model
        if model is not None:
            model = replace(model, b_ref=None)
        return CompiledPlan(
            signature=self.signature,
            kind=self.kind,
            opname=self.opname,
            cpu_seconds=self.cpu_seconds,
            templates=list(self.templates),
            integrity_mode=self.integrity_mode,
            integrity=list(self.integrity),
            geometry=self.geometry,
            model=model,
            replays=0,
        )
