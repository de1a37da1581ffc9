"""repro.plan — AOT compiled-plan capture, caching, and serialization.

The executorch-style lowering/delegation split (ROADMAP item 1): the
Tensorizer *captures* the data-independent outcome of lowering one
operation into a :class:`CompiledPlan` (tiling geometry, instruction
templates, and — for GEMMs — the quantized model operand), a
bounded-LRU :class:`PlanCache` keyed by the full lowering signature
holds the plans, and replay *binds* a plan to each new request with
only per-request input quantization left on the host.

Whether an operand is the one already quantized is decided by one rule
everywhere (:func:`hold_operand` / :func:`same_operand`,
:mod:`repro.plan.operand`).

Plans round-trip to bytes through :func:`serialize_plan` /
:func:`parse_plan` — a versioned extension of the §3.3 model binary
layout — so they can be shipped between processes (ROADMAP item 2).
"""

from repro.plan.cache import DEFAULT_MAX_ENTRIES, PlanCache, plan_signature
from repro.plan.compiled import (
    KIND_GEMM,
    KIND_GENERIC,
    CompiledPlan,
    GemmGeometry,
    GemmModelBlock,
    InstrTemplate,
    model_block_for,
)
from repro.plan.operand import frozen, hold_operand, same_operand
from repro.plan.serial import (
    PLAN_FORMAT_VERSION,
    PLAN_HEADER_SIZE,
    PLAN_MAGIC,
    parse_plan,
    serialize_plan,
)

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "KIND_GEMM",
    "KIND_GENERIC",
    "PLAN_FORMAT_VERSION",
    "PLAN_HEADER_SIZE",
    "PLAN_MAGIC",
    "CompiledPlan",
    "GemmGeometry",
    "GemmModelBlock",
    "InstrTemplate",
    "PlanCache",
    "frozen",
    "hold_operand",
    "model_block_for",
    "parse_plan",
    "plan_signature",
    "same_operand",
    "serialize_plan",
]
