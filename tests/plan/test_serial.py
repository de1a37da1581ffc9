"""Plan serialization: byte-exact round-trips and typed rejects."""

import dataclasses
import struct

import numpy as np
import pytest

from repro.edgetpu.isa import Opcode
from repro.errors import (
    ModelFormatError,
    ModelSizeMismatchError,
    PlanFormatError,
)
from repro.plan import (
    PLAN_FORMAT_VERSION,
    PLAN_HEADER_SIZE,
    PLAN_MAGIC,
    CompiledPlan,
    GemmGeometry,
    InstrTemplate,
    PlanCache,
    parse_plan,
    serialize_plan,
)
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import Tensorizer, TensorizerOptions


def _template(i: int = 0) -> InstrTemplate:
    return InstrTemplate(
        opname="add",
        label=f"add:{i}",
        group_key="task{task}:g" + str(i),
        cache_key="{src}:c" + str(i),
        model_cache_key="{msrc}:m" + str(i),
        data_bytes=1024,
        model_bytes=64,
        out_bytes=1024,
        count=2,
        model_build_seconds=0.25,
        exec_seconds=0.125,
    )


def _generic_plan() -> CompiledPlan:
    return CompiledPlan(
        signature="plan-v1|op=ADD|test",
        kind="generic",
        opname="add",
        templates=[_template(0), _template(1)],
    )


def _captured_gemm_plan(integrity: str = "off") -> CompiledPlan:
    """A real plan captured by lowering a small GEMM."""
    rng = np.random.default_rng(11)
    cache = PlanCache()
    tz = Tensorizer(
        options=TensorizerOptions(integrity=integrity),
        plan_cache=cache,
    )
    request = OperationRequest(
        task_id=0,
        opcode=Opcode.CONV2D,
        inputs=(
            rng.normal(size=(48, 40)).astype(np.float32),
            rng.normal(size=(40, 36)).astype(np.float32),
        ),
        quant=QuantMode.SCALE,
        attrs={"gemm": True},
    )
    tz.lower(request)
    (plan,) = cache.plans()
    assert plan.kind == "gemm_conv2d"
    assert plan.model is not None  # SCALE capture stores the model block
    return plan


class TestRoundTrip:
    def test_generic_plan_roundtrips_byte_exactly(self):
        blob = serialize_plan(_generic_plan())
        parsed = parse_plan(blob)
        assert serialize_plan(parsed) == blob
        assert parsed.signature == "plan-v1|op=ADD|test"
        assert parsed.templates == _generic_plan().templates
        assert parsed.geometry is None and parsed.model is None

    @pytest.mark.parametrize("integrity", ["off", "abft"])
    def test_captured_gemm_plan_roundtrips_byte_exactly(self, integrity):
        plan = _captured_gemm_plan(integrity)
        blob = serialize_plan(plan)
        # The model block is runtime state: the blob never carries it.
        assert blob == serialize_plan(plan.without_runtime_state())
        parsed = parse_plan(blob)
        assert serialize_plan(parsed) == blob
        assert parsed.signature == plan.signature
        assert parsed.geometry == plan.geometry
        assert parsed.templates == plan.templates
        assert parsed.model is None

    def test_replay_count_is_runtime_state_not_serialized(self):
        plan = _generic_plan()
        plan.replays = 17
        parsed = parse_plan(serialize_plan(plan))
        assert parsed.replays == 0

    def test_header_layout(self):
        blob = serialize_plan(_generic_plan())
        assert blob[: len(PLAN_MAGIC)] == PLAN_MAGIC
        (version,) = struct.unpack_from("<I", blob, len(PLAN_MAGIC))
        assert version == PLAN_FORMAT_VERSION == 2
        (size,) = struct.unpack_from("<I", blob, PLAN_HEADER_SIZE - 4)
        assert size == len(blob) - PLAN_HEADER_SIZE


class TestTypedRejects:
    def test_plan_format_error_is_a_model_format_error(self):
        assert issubclass(PlanFormatError, ModelFormatError)

    def test_bad_magic(self):
        blob = bytearray(serialize_plan(_generic_plan()))
        blob[0] ^= 0xFF
        with pytest.raises(PlanFormatError):
            parse_plan(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(serialize_plan(_generic_plan()))
        struct.pack_into("<I", blob, len(PLAN_MAGIC), 99)
        with pytest.raises(PlanFormatError):
            parse_plan(bytes(blob))

    def test_version_1_is_not_read(self):
        # v1 blobs carried a model section and integrity block; no
        # reader for them is kept.
        blob = bytearray(serialize_plan(_generic_plan()))
        struct.pack_into("<I", blob, len(PLAN_MAGIC), 1)
        with pytest.raises(PlanFormatError, match="version 1"):
            parse_plan(bytes(blob))

    def test_nonzero_reserved_header_bytes(self):
        blob = bytearray(serialize_plan(_generic_plan()))
        blob[len(PLAN_MAGIC) + 6] = 1
        with pytest.raises(PlanFormatError):
            parse_plan(bytes(blob))

    def test_size_field_mismatch_is_the_typed_subclass(self):
        blob = bytearray(serialize_plan(_generic_plan()))
        (size,) = struct.unpack_from("<I", blob, PLAN_HEADER_SIZE - 4)
        struct.pack_into("<I", blob, PLAN_HEADER_SIZE - 4, size + 8)
        with pytest.raises(ModelSizeMismatchError) as exc:
            parse_plan(bytes(blob))
        assert exc.value.declared == size + 8
        assert exc.value.actual == size

    def test_truncated_body(self):
        blob = serialize_plan(_generic_plan())
        with pytest.raises((PlanFormatError, ModelSizeMismatchError)):
            parse_plan(blob[:-3])

    def test_trailing_bytes_rejected(self):
        blob = serialize_plan(_generic_plan())
        with pytest.raises((PlanFormatError, ModelSizeMismatchError)):
            parse_plan(blob + b"\x00\x00")

    def test_too_short_for_header(self):
        with pytest.raises(PlanFormatError):
            parse_plan(b"GPTPUPLN")

    def test_non_finite_costs_rejected_at_serialize(self):
        plan = _generic_plan()
        plan.templates[1] = dataclasses.replace(
            plan.templates[1], exec_seconds=float("nan")
        )
        with pytest.raises(PlanFormatError):
            serialize_plan(plan)

    def test_geometry_stride_invariant_enforced_on_parse(self):
        # s must be ceil(sqrt(n)) (§7.1.2); serialize a plan whose
        # geometry lies and confirm the parser rejects it.
        geometry = GemmGeometry(m=8, n=16, k=8, s=4, rows_per_chunk=8, batch=8)
        plan = CompiledPlan(
            signature="sig",
            kind="gemm_conv2d",
            opname="conv2D",
            geometry=geometry,
        )
        blob = bytearray(serialize_plan(plan))
        # Patch the serialized stride field (6th geometry u32) to 9.
        sig_len = 2 + len("sig")
        geom_off = PLAN_HEADER_SIZE + sig_len + 1 + (1 + len("conv2D")) + 1
        struct.pack_into("<I", blob, geom_off + 3 * 4, 9)
        with pytest.raises(PlanFormatError):
            parse_plan(bytes(blob))
