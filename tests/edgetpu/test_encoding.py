"""Tests for the binary instruction wire format (host→device CISC stream)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelFormatError
from repro.edgetpu.device import EdgeTPUDevice
from repro.edgetpu.encoding import (
    MAGIC,
    decode_instruction,
    encode_instruction,
)
from repro.edgetpu.isa import Instruction, Opcode
from repro.edgetpu.quantize import QuantParams


def i8(values):
    return np.asarray(values, dtype=np.int8)


def make_instruction(op: Opcode) -> Instruction:
    p = QuantParams(scale=2.0)
    outp = QuantParams(scale=4.0)
    rng = np.random.default_rng(hash(op.opname) % 2**32)
    data = rng.integers(-100, 100, (6, 6)).astype(np.int8)
    if op is Opcode.CONV2D:
        return Instruction(op, data, p, model=i8(np.ones((2, 2))), model_params=p,
                           out_params=outp, attrs={"stride": (2, 2)})
    if op is Opcode.FULLY_CONNECTED:
        return Instruction(op, i8([1, 2, 3]), p, model=i8(np.ones((3, 4))),
                           model_params=p, out_params=outp)
    if op.is_pairwise:
        return Instruction(op, data, p, model=data.copy(), model_params=p, out_params=outp)
    if op is Opcode.CROP:
        return Instruction(op, data, p, attrs={"crop_box": (1, 1, 3, 3)})
    if op is Opcode.EXT:
        return Instruction(op, data, p, attrs={"ext_shape": (8, 8), "ext_offset": (1, 1)})
    if op is Opcode.POOL:
        return Instruction(op, data, p, attrs={"window": (3, 2), "stride": (1, 2), "kind": "avg"})
    return Instruction(op, data, p)


#: Wire-encodable opcodes (macro opcodes never reach the device).
WIRE_OPS = [op for op in Opcode if not op.is_macro]


class TestRoundTrip:
    @pytest.mark.parametrize("op", WIRE_OPS, ids=[o.opname for o in WIRE_OPS])
    def test_every_opcode_round_trips(self, op):
        instr = make_instruction(op)
        decoded = decode_instruction(encode_instruction(instr))
        assert decoded.opcode is instr.opcode
        np.testing.assert_array_equal(decoded.data, instr.data)
        assert decoded.data_params.scale == pytest.approx(instr.data_params.scale)
        if instr.model is not None:
            np.testing.assert_array_equal(decoded.model, instr.model)
        for key in ("stride", "crop_box", "ext_shape", "ext_offset", "window"):
            if key in instr.attrs:
                assert tuple(decoded.attrs[key]) == tuple(instr.attrs[key]), key
        if "kind" in instr.attrs:
            assert decoded.attrs["kind"] == instr.attrs["kind"]

    @pytest.mark.parametrize("op", WIRE_OPS, ids=[o.opname for o in WIRE_OPS])
    def test_packet_execution_equals_direct_execution(self, op):
        """The wire path and the object path are the same device."""
        instr = make_instruction(op)
        direct = EdgeTPUDevice("direct").execute(instr)
        packet = EdgeTPUDevice("packet").execute_packet(encode_instruction(instr))
        np.testing.assert_array_equal(direct.output, packet.output)
        assert direct.seconds == pytest.approx(packet.seconds)

    def test_kernel_stack_round_trips_with_shape_hint(self):
        p = QuantParams(1.0)
        kernels = np.arange(2 * 3 * 3, dtype=np.int8).reshape(2, 3, 3)
        instr = Instruction(
            Opcode.CONV2D, i8(np.zeros((9, 3))), p, model=kernels, model_params=p,
            out_params=QuantParams(1.0), attrs={"stride": (3, 3)},
        )
        decoded = decode_instruction(encode_instruction(instr), kernel_shape=(2, 3, 3))
        np.testing.assert_array_equal(decoded.model, kernels)

    def test_wide_output_flag_round_trips(self):
        p = QuantParams(1.0)
        instr = Instruction(Opcode.MUL, i8([[2]]), p, model=i8([[3]]), model_params=p,
                            attrs={"wide_output": True})
        decoded = decode_instruction(encode_instruction(instr))
        assert decoded.attrs.get("wide_output") is True
        result = EdgeTPUDevice("w").execute(decoded)
        assert result.output.dtype == np.int64


class TestValidation:
    def test_bad_magic_rejected(self):
        blob = bytearray(encode_instruction(make_instruction(Opcode.RELU)))
        blob[0] ^= 0xFF
        with pytest.raises(ModelFormatError, match="magic"):
            decode_instruction(bytes(blob))

    def test_truncated_packet_rejected(self):
        blob = encode_instruction(make_instruction(Opcode.RELU))
        with pytest.raises(ModelFormatError):
            decode_instruction(blob[:10])
        with pytest.raises(ModelFormatError, match="truncated"):
            decode_instruction(blob[:-1])

    def test_unknown_opcode_rejected(self):
        blob = bytearray(encode_instruction(make_instruction(Opcode.RELU)))
        blob[6] = 200  # opcode byte
        with pytest.raises(ModelFormatError, match="opcode"):
            decode_instruction(bytes(blob))

    def test_macro_opcode_rejected(self):
        blob = bytearray(encode_instruction(make_instruction(Opcode.RELU)))
        blob[6] = list(Opcode).index(Opcode.CONV2D_NN)  # opcode byte
        with pytest.raises(ModelFormatError, match="macro"):
            decode_instruction(bytes(blob))

    def test_macro_opcode_has_no_instruction_form(self):
        with pytest.raises(ValueError, match="macro"):
            Instruction(Opcode.CONV2D_NN, i8([[1]]), QuantParams(1.0))

    def test_bad_pool_kind_code_rejected(self):
        blob = bytearray(encode_instruction(make_instruction(Opcode.POOL)))
        # attr word 2 (kind code) starts at header offset 24 + 8 = 32.
        blob[32] = 7
        with pytest.raises(ModelFormatError, match="pool kind"):
            decode_instruction(bytes(blob))

    def test_trailing_garbage_rejected_for_unary_ops(self):
        blob = encode_instruction(make_instruction(Opcode.TANH))
        with pytest.raises(ModelFormatError, match="trailing"):
            decode_instruction(blob + b"\x00")

    def test_corrupt_embedded_model_rejected(self):
        blob = bytearray(encode_instruction(make_instruction(Opcode.ADD)))
        blob[-1] ^= 0xFF  # corrupt model metadata (scale byte)
        try:
            decode_instruction(bytes(blob))
        except ModelFormatError:
            pass  # either detected...
        # ...or the scale simply changed; flip a length byte instead:
        with pytest.raises(ModelFormatError):
            decode_instruction(bytes(blob[:-4]))

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_property_garbage_never_crashes_decoder(self, junk):
        try:
            decode_instruction(junk)
        except ModelFormatError:
            pass

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_property_mutated_headers_never_crash(self, tail):
        try:
            decode_instruction(MAGIC + tail)
        except ModelFormatError:
            pass
