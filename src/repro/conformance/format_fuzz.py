"""Seeded mutation fuzzer for the §3.3 model binary format.

Property under test: for any mutation of a well-formed blob, the parser
must either **reject with a typed error** (:class:`ModelFormatError`,
with :class:`ModelSizeMismatchError` specifically for header-size
disagreements) or **accept and round-trip byte-exactly** — re-serializing
the parsed model reproduces the mutated blob bit for bit.  Anything
else means the parser silently repaired, truncated, or misread bytes.

All randomness derives from the campaign seed (no wall-clock entropy);
the seed in the JSON report reproduces every mutation exactly.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.conformance.oracles import derive_rng
from repro.edgetpu.model_format import (
    HEADER_SIZE,
    MAGIC,
    parse_model,
    serialize_model,
)
from repro.edgetpu.quantize import QuantParams
from repro.errors import ModelFormatError, ModelSizeMismatchError
from repro.plan.compiled import (
    KIND_GEMM,
    KIND_GENERIC,
    CompiledPlan,
    GemmGeometry,
    InstrTemplate,
)
from repro.plan.serial import (
    PLAN_HEADER_SIZE,
    PLAN_MAGIC,
    parse_plan,
    serialize_plan,
)

#: Metadata layout past the data section: rows (u32), cols (u32), f32 scale.
_META_SIZE = 12

#: Mutation operator names, in selection order.
MUTATIONS = (
    "identity",
    "magic",
    "version",
    "size-field",
    "truncate",
    "extend",
    "scale",
    "dims",
    "data-byte",
    "reserved-header",
)


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing campaign."""

    iterations: int = 0
    rejected: int = 0
    #: Accepted blobs that re-serialized byte-exactly.
    roundtripped: int = 0
    #: Size-field disagreements that raised the *typed* subclass.
    typed_size_errors: int = 0
    by_mutation: Dict[str, int] = field(default_factory=dict)
    #: Human-readable property violations (must stay empty).
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "rejected": self.rejected,
            "roundtripped": self.roundtripped,
            "typed_size_errors": self.typed_size_errors,
            "by_mutation": dict(sorted(self.by_mutation.items())),
            "violations": list(self.violations),
            "ok": self.ok,
        }


def _fresh_blob(rng: np.random.Generator) -> bytes:
    rows = int(rng.integers(1, 24))
    cols = int(rng.integers(1, 24))
    data = rng.integers(-128, 128, size=(rows, cols)).astype(np.int8)
    scale = float(2.0 ** rng.integers(-6, 7))
    return serialize_model(data, QuantParams(scale))


def _mutate(blob: bytes, mutation: str, rng: np.random.Generator) -> bytes:
    buf = bytearray(blob)
    if mutation == "identity":
        return bytes(buf)
    if mutation == "magic":
        pos = int(rng.integers(0, len(MAGIC)))
        buf[pos] ^= int(rng.integers(1, 256))
        return bytes(buf)
    if mutation == "version":
        bad = int(rng.integers(2, 2**31))
        struct.pack_into("<I", buf, len(MAGIC), bad)
        return bytes(buf)
    if mutation == "size-field":
        (size,) = struct.unpack_from("<I", buf, HEADER_SIZE - 4)
        delta = 0
        while delta == 0:
            delta = int(rng.integers(-min(size, 64), 65))
        struct.pack_into("<I", buf, HEADER_SIZE - 4, size + delta)
        return bytes(buf)
    if mutation == "truncate":
        cut = int(rng.integers(1, min(len(buf), 32) + 1))
        return bytes(buf[:-cut])
    if mutation == "extend":
        extra = rng.integers(0, 256, size=int(rng.integers(1, 32))).astype(np.uint8)
        return bytes(buf) + extra.tobytes()
    if mutation == "scale":
        bad = rng.choice(np.array([0.0, -1.0, np.nan, np.inf], dtype=np.float32))
        struct.pack_into("<f", buf, len(buf) - 4, float(bad))
        return bytes(buf)
    if mutation == "dims":
        rows = int(rng.integers(0, 64))
        cols = int(rng.integers(0, 64))
        struct.pack_into("<II", buf, len(buf) - _META_SIZE, rows, cols)
        return bytes(buf)
    if mutation == "data-byte":
        if len(buf) == HEADER_SIZE + _META_SIZE + 0:
            return bytes(buf)
        pos = HEADER_SIZE + int(rng.integers(0, len(buf) - HEADER_SIZE - _META_SIZE))
        buf[pos] ^= int(rng.integers(1, 256))
        return bytes(buf)
    if mutation == "reserved-header":
        pos = int(rng.integers(len(MAGIC) + 4, HEADER_SIZE - 4))
        buf[pos] ^= int(rng.integers(1, 256))
        return bytes(buf)
    raise ValueError(f"unknown mutation {mutation!r}")  # pragma: no cover


def run_fuzz(seed: int, iterations: int = 400) -> FuzzReport:
    """Run *iterations* seeded mutations against the parser."""
    report = FuzzReport()
    rng = derive_rng(seed, "format-fuzz")
    for i in range(iterations):
        mutation = MUTATIONS[int(rng.integers(0, len(MUTATIONS)))]
        blob = _mutate(_fresh_blob(rng), mutation, rng)
        report.iterations += 1
        report.by_mutation[mutation] = report.by_mutation.get(mutation, 0) + 1
        try:
            parsed = parse_model(blob)
        except ModelSizeMismatchError:
            report.rejected += 1
            report.typed_size_errors += 1
            continue
        except ModelFormatError:
            if mutation == "size-field":
                # A size-field disagreement must surface as the typed
                # subclass, not a generic parse failure.
                report.violations.append(
                    f"iter {i}: size-field mutation raised an untyped "
                    "ModelFormatError"
                )
            report.rejected += 1
            continue
        except Exception as exc:  # non-ModelFormatError escape = bug
            report.violations.append(
                f"iter {i}: {mutation} mutation escaped the typed hierarchy: "
                f"{type(exc).__name__}: {exc}"
            )
            continue
        # Accepted: the parse must round-trip to the same bytes.
        back = serialize_model(parsed.data, parsed.params)
        if back != blob:
            report.violations.append(
                f"iter {i}: {mutation} mutation was accepted but "
                f"re-serialized differently ({len(back)} vs {len(blob)} bytes)"
            )
            continue
        report.roundtripped += 1
    return report


# ----------------------------------------------------------------------
# compiled-plan blobs (the §3.3 layout extended — repro.plan.serial)
# ----------------------------------------------------------------------

#: Plan-blob mutation operators.  The plan body is a variable-length
#: record stream (no fixed metadata tail), so the model fuzzer's
#: ``scale``/``dims`` operators become a single ``body-byte`` operator
#: that strikes anywhere in the stream: string lengths, record counts,
#: the kind code, geometry fields, and the records' sizes and f64 costs.
PLAN_MUTATIONS = (
    "identity",
    "magic",
    "version",
    "size-field",
    "truncate",
    "extend",
    "body-byte",
    "reserved-header",
    "opname",
)


def _rand_template(rng: np.random.Generator, i: int) -> InstrTemplate:
    # Canonical wire opnames only (the parser rejects everything else,
    # including the conv2D_nn macro — see the opname mutation operator).
    return InstrTemplate(
        opname=str(rng.choice(["conv2D", "add", "mul", "tanh", "pool", "softmax"])),
        label=f"fuzz:t{i}",
        group_key="task{task}:g" + str(i),
        cache_key="{src}:c" + str(i),
        model_cache_key="{msrc}:m" + str(i),
        data_bytes=int(rng.integers(0, 1 << 20)),
        model_bytes=int(rng.integers(0, 1 << 20)),
        out_bytes=int(rng.integers(0, 1 << 20)),
        count=int(rng.integers(1, 8)),
        model_build_seconds=float(rng.integers(0, 1 << 20)) / (1 << 16),
        exec_seconds=float(rng.integers(0, 1 << 20)) / (1 << 16),
    )


def _fresh_plan_blob(rng: np.random.Generator) -> bytes:
    """Serialize a random well-formed plan (generic or gemm_conv2d)."""
    templates = [_rand_template(rng, i) for i in range(int(rng.integers(1, 5)))]
    if rng.integers(0, 2) == 0:
        plan = CompiledPlan(
            signature=f"plan-v1|fuzz|{int(rng.integers(0, 1 << 30))}",
            kind=KIND_GENERIC,
            opname=str(rng.choice(["add", "pool", "softmax"])),
            templates=templates,
        )
        return serialize_plan(plan)

    n = int(rng.integers(1, 65))
    s = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    m = int(rng.integers(1, 33))
    k = int(rng.integers(1, 33))
    geometry = GemmGeometry(
        m=m,
        n=n,
        k=k,
        s=s,
        rows_per_chunk=int(rng.integers(1, m + 1)),
        batch=int(rng.integers(1, k + 1)),
    )
    plan = CompiledPlan(
        signature=f"plan-v1|fuzz|{int(rng.integers(0, 1 << 30))}",
        kind=KIND_GEMM,
        opname="conv2D",
        templates=templates,
        geometry=geometry,
    )
    return serialize_plan(plan)


def _mutate_plan(blob: bytes, mutation: str, rng: np.random.Generator) -> bytes:
    buf = bytearray(blob)
    if mutation == "identity":
        return bytes(buf)
    if mutation == "magic":
        pos = int(rng.integers(0, len(PLAN_MAGIC)))
        buf[pos] ^= int(rng.integers(1, 256))
        return bytes(buf)
    if mutation == "version":
        bad = int(rng.integers(2, 2**31))
        struct.pack_into("<I", buf, len(PLAN_MAGIC), bad)
        return bytes(buf)
    if mutation == "size-field":
        (size,) = struct.unpack_from("<I", buf, PLAN_HEADER_SIZE - 4)
        delta = 0
        while delta == 0:
            delta = int(rng.integers(-min(size, 64), 65))
        struct.pack_into("<I", buf, PLAN_HEADER_SIZE - 4, size + delta)
        return bytes(buf)
    if mutation == "truncate":
        cut = int(rng.integers(1, min(len(buf), 32) + 1))
        return bytes(buf[:-cut])
    if mutation == "extend":
        extra = rng.integers(0, 256, size=int(rng.integers(1, 32))).astype(np.uint8)
        return bytes(buf) + extra.tobytes()
    if mutation == "body-byte":
        pos = PLAN_HEADER_SIZE + int(rng.integers(0, len(buf) - PLAN_HEADER_SIZE))
        buf[pos] ^= int(rng.integers(1, 256))
        return bytes(buf)
    if mutation == "reserved-header":
        pos = int(rng.integers(len(PLAN_MAGIC) + 4, PLAN_HEADER_SIZE - 4))
        buf[pos] ^= int(rng.integers(1, 256))
        return bytes(buf)
    if mutation == "opname":
        # Flip the case of one letter of the plan-level opname.  Wire
        # opnames are canonical, case-sensitive registry entries (pool,
        # softmax, conv2D, ... — and never the conv2D_nn macro), so any
        # case-flipped rendering must be rejected with a typed error.
        (sig_len,) = struct.unpack_from("<H", buf, PLAN_HEADER_SIZE)
        off = PLAN_HEADER_SIZE + 2 + sig_len + 1  # past signature + kind byte
        name_len = buf[off]
        for pos in range(off + 1, off + 1 + name_len):
            if 65 <= buf[pos] <= 90 or 97 <= buf[pos] <= 122:
                buf[pos] ^= 0x20
                break
        return bytes(buf)
    raise ValueError(f"unknown plan mutation {mutation!r}")  # pragma: no cover


def run_plan_fuzz(seed: int, iterations: int = 400) -> FuzzReport:
    """Fuzz the compiled-plan parser with the same accept/reject contract.

    Every mutated blob must be rejected with a typed error
    (:class:`~repro.errors.PlanFormatError` is a
    :class:`ModelFormatError`, with :class:`ModelSizeMismatchError`
    specifically for header-size disagreements) or accepted and
    re-serialized byte-exactly.
    """
    report = FuzzReport()
    rng = derive_rng(seed, "plan-fuzz")
    for i in range(iterations):
        mutation = PLAN_MUTATIONS[int(rng.integers(0, len(PLAN_MUTATIONS)))]
        blob = _mutate_plan(_fresh_plan_blob(rng), mutation, rng)
        report.iterations += 1
        report.by_mutation[mutation] = report.by_mutation.get(mutation, 0) + 1
        try:
            parsed = parse_plan(blob)
        except ModelSizeMismatchError:
            report.rejected += 1
            report.typed_size_errors += 1
            continue
        except ModelFormatError:
            if mutation == "size-field":
                report.violations.append(
                    f"iter {i}: plan size-field mutation raised an untyped "
                    "ModelFormatError"
                )
            report.rejected += 1
            continue
        except Exception as exc:  # non-ModelFormatError escape = bug
            report.violations.append(
                f"iter {i}: plan {mutation} mutation escaped the typed "
                f"hierarchy: {type(exc).__name__}: {exc}"
            )
            continue
        back = serialize_plan(parsed)
        if back != blob:
            report.violations.append(
                f"iter {i}: plan {mutation} mutation was accepted but "
                f"re-serialized differently ({len(back)} vs {len(blob)} bytes)"
            )
            continue
        report.roundtripped += 1
    return report
