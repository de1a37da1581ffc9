"""Serialized compiled plans: the §3.3 layout, extended.

A plan blob keeps the model binary format's structure (paper §3.3) so
the same tooling conventions apply:

1. a **120-byte header** whose first bytes carry a magic tag and format
   version and whose **last 4 bytes** are an unsigned little-endian
   integer — here the size of the *plan body* that follows;
2. the body (format version 2): the lowering signature, the plan kind,
   the opname, the tiling geometry, and one **instruction-group
   record** per template — the fields a bind reads, nothing more.  No
   model operand is carried: a parsed plan has no operand to compare
   a request's against, so it quantizes its model on first use, and
   the integrity mode is already part of the signature;
3. **little-endian** encoding throughout.

Parsing obeys the same contract the model parser does (and the fuzzer
enforces): every malformed blob is rejected with a typed error —
:class:`~repro.errors.PlanFormatError`, or
:class:`~repro.errors.ModelSizeMismatchError` when the header's size
field disagrees with the blob — and every accepted blob re-serializes
**byte-exactly**.  The parser consumes the body completely; trailing or
missing bytes are never guessed around.  Only version 2 is read.
"""

from __future__ import annotations

import struct
from typing import List

import numpy as np

from repro.edgetpu.isa import Opcode
from repro.errors import ModelSizeMismatchError, PlanFormatError
from repro.plan.compiled import (
    KIND_GEMM,
    KIND_GENERIC,
    CompiledPlan,
    GemmGeometry,
    InstrTemplate,
)

#: Header size, shared with the §3.3 model format.
PLAN_HEADER_SIZE = 120
#: Magic tag distinguishing plan blobs from model blobs ("GPTPUMDL").
PLAN_MAGIC = b"GPTPUPLN"
#: Plan format version we emit.
PLAN_FORMAT_VERSION = 2

_KIND_CODES = {KIND_GENERIC: 0, KIND_GEMM: 1}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}

#: Opnames a plan may legally carry.  Instruction records are device
#: instructions, so macro opcodes (host-level, no wire form — conv2D_nn)
#: are rejected at parse time; the Tensorizer never captures them either
#: (a macro lowers through its wire-op sub-request).
_WIRE_OPNAMES = frozenset(op.opname for op in Opcode if not op.is_macro)

#: Fixed-width tail of one instruction-group record past its strings:
#: data/model/out bytes (u64 ×3), count (u32), build+exec seconds (f64 ×2).
_TEMPLATE_FIXED = struct.Struct("<QQQIdd")
#: Smallest possible encoding, used to bound the count field up front.
_TEMPLATE_MIN = 1 + 2 * 4 + _TEMPLATE_FIXED.size


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------


def _enc_str(out: bytearray, text: str, width: str) -> None:
    raw = text.encode("utf-8")
    limit = 255 if width == "B" else 65535
    if len(raw) > limit:
        raise PlanFormatError(
            f"plan string too long to serialize ({len(raw)} bytes > {limit})"
        )
    out += struct.pack(f"<{width}", len(raw))
    out += raw


def _finite(value: float, what: str) -> float:
    value = float(value)
    if not np.isfinite(value) or value < 0:
        raise PlanFormatError(f"{what} must be finite and non-negative, got {value}")
    return value


def serialize_plan(plan: CompiledPlan) -> bytes:
    """Encode a :class:`CompiledPlan` into the versioned plan format."""
    if plan.kind not in _KIND_CODES:
        raise PlanFormatError(f"unknown plan kind {plan.kind!r}")

    body = bytearray()
    _enc_str(body, plan.signature, "H")
    body += struct.pack("<B", _KIND_CODES[plan.kind])
    _enc_str(body, plan.opname, "B")

    # Geometry block: field count then u32 values (0 for generic plans).
    if plan.kind == KIND_GEMM:
        g = plan.geometry
        body += struct.pack(
            "<BIIIIII", 6, g.m, g.n, g.k, g.s, g.rows_per_chunk, g.batch
        )
    else:
        if plan.geometry is not None:
            raise PlanFormatError("generic plans carry no geometry block")
        body += struct.pack("<B", 0)

    # Instruction-group records.
    body += struct.pack("<I", len(plan.templates))
    for t in plan.templates:
        _enc_str(body, t.opname, "B")
        _enc_str(body, t.label, "H")
        _enc_str(body, t.group_key, "H")
        _enc_str(body, t.cache_key, "H")
        _enc_str(body, t.model_cache_key, "H")
        body += _TEMPLATE_FIXED.pack(
            t.data_bytes,
            t.model_bytes,
            t.out_bytes,
            t.count,
            _finite(t.model_build_seconds, "template model_build_seconds"),
            _finite(t.exec_seconds, "template exec_seconds"),
        )

    header = bytearray(PLAN_HEADER_SIZE)
    header[: len(PLAN_MAGIC)] = PLAN_MAGIC
    struct.pack_into("<I", header, len(PLAN_MAGIC), PLAN_FORMAT_VERSION)
    # §3.3: the last 4 header bytes are an unsigned size integer — for
    # plans, the size of the whole body.
    struct.pack_into("<I", header, PLAN_HEADER_SIZE - 4, len(body))
    return bytes(header) + bytes(body)


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------


class _Reader:
    """Cursor over the plan body; every read is bounds-checked."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf: memoryview) -> None:
        self.buf = buf
        self.pos = 0

    @property
    def remaining(self) -> int:
        return len(self.buf) - self.pos

    def take(self, n: int) -> memoryview:
        if n < 0 or n > self.remaining:
            raise PlanFormatError(
                f"plan body truncated: needed {n} bytes, {self.remaining} left"
            )
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, st: struct.Struct):
        return st.unpack(self.take(st.size).tobytes())

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "little")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "little")

    def string(self, width: str) -> str:
        length = self.u8() if width == "B" else self.u16()
        raw = self.take(length).tobytes()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise PlanFormatError(f"plan string is not valid UTF-8: {exc}") from None


def _check_finite(value: float, what: str) -> float:
    if not np.isfinite(value) or value < 0:
        raise PlanFormatError(f"{what} must be finite and non-negative, got {value}")
    return float(value)


def parse_plan(blob: bytes) -> CompiledPlan:
    """Decode a plan blob, validating every structural invariant."""
    if len(blob) < PLAN_HEADER_SIZE:
        raise PlanFormatError(
            f"blob too short to be a plan ({len(blob)} bytes < "
            f"{PLAN_HEADER_SIZE} header minimum)"
        )
    if bytes(blob[: len(PLAN_MAGIC)]) != PLAN_MAGIC:
        raise PlanFormatError("bad magic: not a compiled-plan blob")
    (version,) = struct.unpack_from("<I", blob, len(PLAN_MAGIC))
    if version != PLAN_FORMAT_VERSION:
        raise PlanFormatError(f"unsupported plan format version {version}")
    if any(blob[len(PLAN_MAGIC) + 4 : PLAN_HEADER_SIZE - 4]):
        # Same rule as the model header: undocumented bytes are emitted
        # as zeros; nonzero bytes would be dropped on re-serialization,
        # so reject rather than guess.
        raise PlanFormatError("reserved plan header bytes must be zero")
    (body_size,) = struct.unpack_from("<I", blob, PLAN_HEADER_SIZE - 4)
    actual = len(blob) - PLAN_HEADER_SIZE
    if body_size != actual:
        raise ModelSizeMismatchError(
            f"plan header declares a {body_size}-byte body but the blob "
            f"holds {actual} bytes past the header",
            declared=body_size,
            actual=actual,
        )

    r = _Reader(memoryview(blob)[PLAN_HEADER_SIZE:])
    signature = r.string("H")
    kind_code = r.u8()
    if kind_code not in _KIND_NAMES:
        raise PlanFormatError(f"unknown plan kind code {kind_code}")
    kind = _KIND_NAMES[kind_code]
    opname = r.string("B")
    if not opname:
        raise PlanFormatError("plan opname must be non-empty")
    if opname not in _WIRE_OPNAMES:
        raise PlanFormatError(
            f"plan opname {opname!r} is not an executable device opcode"
        )

    geom_fields = r.u8()
    geometry = None
    if kind == KIND_GEMM:
        if geom_fields != 6:
            raise PlanFormatError(
                f"gemm_conv2d plans carry 6 geometry fields, got {geom_fields}"
            )
        m, n, k, s, rows_per_chunk, batch = (r.u32() for _ in range(6))
        if min(m, n, k, s, rows_per_chunk, batch) < 1:
            raise PlanFormatError("geometry fields must be positive")
        if s * s < n or (s - 1) * (s - 1) >= n:
            raise PlanFormatError(
                f"geometry stride {s} is not ceil(sqrt({n})) (§7.1.2)"
            )
        geometry = GemmGeometry(
            m=m, n=n, k=k, s=s, rows_per_chunk=rows_per_chunk, batch=batch
        )
    elif geom_fields != 0:
        raise PlanFormatError(
            f"generic plans carry no geometry fields, got {geom_fields}"
        )

    n_templates = r.u32()
    if n_templates * _TEMPLATE_MIN > r.remaining:
        raise PlanFormatError(
            f"instruction-record count {n_templates} exceeds the plan body"
        )
    templates: List[InstrTemplate] = []
    for _ in range(n_templates):
        t_opname = r.string("B")
        label = r.string("H")
        group_key = r.string("H")
        cache_key = r.string("H")
        model_cache_key = r.string("H")
        data_bytes, model_bytes, out_bytes, count, build_s, exec_s = r.unpack(
            _TEMPLATE_FIXED
        )
        if not t_opname:
            raise PlanFormatError("instruction record opname must be non-empty")
        if t_opname not in _WIRE_OPNAMES:
            raise PlanFormatError(
                f"instruction record opname {t_opname!r} is not an "
                f"executable device opcode"
            )
        if count < 1:
            raise PlanFormatError(f"instruction record count must be >= 1, got {count}")
        templates.append(
            InstrTemplate(
                opname=t_opname,
                label=label,
                group_key=group_key,
                cache_key=cache_key,
                model_cache_key=model_cache_key,
                data_bytes=data_bytes,
                model_bytes=model_bytes,
                out_bytes=out_bytes,
                count=count,
                model_build_seconds=_check_finite(
                    build_s, "template model_build_seconds"
                ),
                exec_seconds=_check_finite(exec_s, "template exec_seconds"),
            )
        )

    if r.remaining:
        raise PlanFormatError(
            f"plan body has {r.remaining} undeclared trailing bytes"
        )
    return CompiledPlan(
        signature=signature,
        kind=kind,
        opname=opname,
        templates=templates,
        geometry=geometry,
    )
