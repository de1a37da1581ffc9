"""Tests for the exact integer semantics of each Edge TPU instruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import UnsupportedInstructionError
from repro.edgetpu import functional
from repro.edgetpu.isa import Instruction, Opcode
from repro.edgetpu.quantize import QuantParams


def i8(values):
    return np.asarray(values, dtype=np.int8)


class TestConv2D:
    def test_identity_kernel(self):
        data = i8([[1, 2], [3, 4]])
        kernel = i8([[1]])
        result = functional.conv2d(data, kernel, 1.0, 1.0)
        np.testing.assert_array_equal(result.acc, [[1, 2], [3, 4]])
        assert result.macs == 4

    def test_valid_convolution_matches_manual(self):
        data = i8([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        kernel = i8([[1, 0], [0, 1]])
        result = functional.conv2d(data, kernel, 1.0, 1.0)
        np.testing.assert_array_equal(result.acc, [[1 + 5, 2 + 6], [4 + 8, 5 + 9]])

    def test_stride_equals_kernel_partitions_windows(self):
        # The §7.1.2 GEMM trick: stride == kernel so windows don't overlap.
        data = i8(np.arange(16).reshape(4, 4))
        kernel = i8(np.ones((2, 2)))
        result = functional.conv2d(data, kernel, 1.0, 1.0, stride=(2, 2))
        expect = np.array([[0 + 1 + 4 + 5, 2 + 3 + 6 + 7], [8 + 9 + 12 + 13, 10 + 11 + 14 + 15]])
        np.testing.assert_array_equal(result.acc, expect)

    def test_kernel_stack_produces_output_channels(self):
        data = i8(np.arange(9).reshape(3, 3))
        kernels = i8(np.stack([np.eye(3), np.ones((3, 3))]))
        result = functional.conv2d(data, kernels, 1.0, 1.0, stride=(3, 3))
        assert result.acc.shape == (2, 1, 1)
        assert result.acc[0, 0, 0] == 0 + 4 + 8
        assert result.acc[1, 0, 0] == 36

    def test_acc_scale_is_product_of_input_scales(self):
        result = functional.conv2d(i8([[2]]), i8([[3]]), 0.5, 0.25)
        assert result.acc_scale == pytest.approx(0.125)

    def test_kernel_larger_than_data_rejected(self):
        with pytest.raises(UnsupportedInstructionError):
            functional.conv2d(i8([[1]]), i8([[1, 1], [1, 1]]), 1.0, 1.0)

    def test_nonpositive_stride_rejected(self):
        with pytest.raises(UnsupportedInstructionError):
            functional.conv2d(i8([[1, 2], [3, 4]]), i8([[1]]), 1.0, 1.0, stride=(0, 1))

    def test_mac_count(self):
        data = i8(np.ones((4, 4)))
        kernel = i8(np.ones((2, 2)))
        result = functional.conv2d(data, kernel, 1.0, 1.0, stride=(2, 2))
        assert result.macs == 4 * 4  # 4 outputs x 4 MACs each

    @given(
        arrays(np.int8, (6, 6), elements=st.integers(-128, 127)),
        arrays(np.int8, (3, 3), elements=st.integers(-128, 127)),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_matches_float_reference(self, data, kernel):
        result = functional.conv2d(data, kernel, 1.0, 1.0)
        from scipy.signal import correlate2d

        ref = correlate2d(data.astype(np.int64), kernel.astype(np.int64), mode="valid")
        np.testing.assert_array_equal(result.acc, ref)


class TestFullyConnected:
    def test_matches_matmul(self):
        vec = i8([1, 2, 3])
        weights = i8([[1, 0], [0, 1], [1, 1]])
        result = functional.fully_connected(vec, weights, 1.0, 1.0)
        np.testing.assert_array_equal(result.acc, [1 + 3, 2 + 3])
        assert result.macs == 6

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(UnsupportedInstructionError):
            functional.fully_connected(i8([1, 2]), i8([[1], [2], [3]]), 1.0, 1.0)

    def test_matrix_input_rejected(self):
        with pytest.raises(UnsupportedInstructionError):
            functional.fully_connected(i8([[1, 2]]), i8([[1], [2]]), 1.0, 1.0)

    @given(
        arrays(np.int8, (8,), elements=st.integers(-128, 127)),
        arrays(np.int8, (8, 5), elements=st.integers(-128, 127)),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_no_overflow_in_wide_accumulator(self, vec, weights):
        result = functional.fully_connected(vec, weights, 1.0, 1.0)
        ref = vec.astype(np.int64) @ weights.astype(np.int64)
        np.testing.assert_array_equal(result.acc, ref)


class TestFullyConnectedBatched:
    """The float32 slab accumulation equals an int64 reference exactly."""

    @staticmethod
    def check(vecs, weights):
        n, t = vecs.shape
        ones, sizes = np.ones(n), np.full(n, t)
        result = functional.fully_connected_batched(vecs, weights, ones, ones, sizes, sizes)
        ref = (vecs.astype(np.int64)[:, None, :] @ weights.astype(np.int64))[:, 0, :]
        assert result.acc.dtype == np.int64
        np.testing.assert_array_equal(result.acc, ref)

    @pytest.mark.parametrize("t", [128, 77])
    def test_all_min_operands(self, t):
        self.check(np.full((3, t), -128, np.int8), np.full((3, t, t), -128, np.int8))

    def test_random_ragged_operands(self):
        rng = np.random.default_rng(5)
        self.check(
            rng.integers(-128, 128, (4, 77), dtype=np.int8),
            rng.integers(-128, 128, (4, 77, 77), dtype=np.int8),
        )

    @pytest.mark.parametrize("value", [-128, -127])
    def test_inner_dim_past_one_exact_slab(self, value):
        # 3000 products of 127² sum past 2^24, where float32 stops
        # representing every integer (one float32 matmul rounds here);
        # each <=1024-long slab stays below it.
        self.check(np.full((1, 3000), value, np.int8), np.full((1, 3000, 3), value, np.int8))

    def test_batch_mismatch_rejected(self):
        with pytest.raises(UnsupportedInstructionError):
            functional.fully_connected_batched(
                np.zeros((2, 4), np.int8), np.zeros((3, 4, 4), np.int8),
                np.ones(2), np.ones(3), np.full(2, 4), np.full(2, 4),
            )


class TestPairwise:
    def test_add_sub_mul(self):
        a, b = i8([[10, -20]]), i8([[5, 5]])
        assert functional.pairwise(Opcode.ADD, a, b, 1.0, 1.0).acc.tolist() == [[15, -15]]
        assert functional.pairwise(Opcode.SUB, a, b, 1.0, 1.0).acc.tolist() == [[5, -25]]
        assert functional.pairwise(Opcode.MUL, a, b, 1.0, 1.0).acc.tolist() == [[50, -100]]

    def test_add_requires_matching_scales(self):
        a, b = i8([[1]]), i8([[1]])
        with pytest.raises(UnsupportedInstructionError):
            functional.pairwise(Opcode.ADD, a, b, 1.0, 2.0)

    def test_mul_combines_scales(self):
        result = functional.pairwise(Opcode.MUL, i8([[2]]), i8([[3]]), 0.5, 0.1)
        assert result.acc_scale == pytest.approx(0.05)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(UnsupportedInstructionError):
            functional.pairwise(Opcode.ADD, i8([[1]]), i8([[1, 2]]), 1.0, 1.0)

    def test_extreme_values_do_not_overflow(self):
        a = i8(np.full((4, 4), -128))
        b = i8(np.full((4, 4), -128))
        result = functional.pairwise(Opcode.MUL, a, b, 1.0, 1.0)
        assert int(result.acc.max()) == 16384


class TestDataMovement:
    def test_crop_extracts_box(self):
        data = i8(np.arange(16).reshape(4, 4))
        result = functional.crop(data, (1, 2, 2, 2), 1.0)
        np.testing.assert_array_equal(result.acc, [[6, 7], [10, 11]])

    def test_crop_out_of_bounds_rejected(self):
        with pytest.raises(UnsupportedInstructionError):
            functional.crop(i8(np.zeros((3, 3))), (2, 2, 2, 2), 1.0)

    def test_ext_zero_pads(self):
        data = i8([[1, 2], [3, 4]])
        result = functional.ext(data, (4, 4), (1, 1), 1.0)
        expect = np.zeros((4, 4), dtype=np.int64)
        expect[1:3, 1:3] = [[1, 2], [3, 4]]
        np.testing.assert_array_equal(result.acc, expect)

    def test_ext_overflow_placement_rejected(self):
        with pytest.raises(UnsupportedInstructionError):
            functional.ext(i8([[1, 2]]), (1, 2), (0, 1), 1.0)

    def test_crop_then_ext_round_trips(self):
        data = i8(np.arange(36).reshape(6, 6))
        cropped = functional.crop(data, (2, 2, 2, 2), 1.0).acc.astype(np.int8)
        back = functional.ext(cropped, (6, 6), (2, 2), 1.0).acc
        np.testing.assert_array_equal(back[2:4, 2:4], data[2:4, 2:4])
        assert back.sum() == data[2:4, 2:4].sum()


class TestReductions:
    def test_mean_scalar(self):
        data = i8([[2, 4], [6, 8]])
        result = functional.mean(data, 1.0)
        assert result.acc.shape == (1, 1)
        # acc = sum, acc_scale = scale*size, so acc/acc_scale = mean.
        assert result.acc[0, 0] / result.acc_scale == pytest.approx(5.0)

    def test_max_scalar_exact(self):
        data = i8([[-5, 3], [7, 1]])
        result = functional.matrix_max(data, 1.0)
        assert result.acc[0, 0] == 7

    def test_mean_shrink_factor_matches_paper(self):
        # §6.2.1: a 64x64 mean shrinks the data "by a factor of 4096".
        data = i8(np.ones((64, 64)))
        result = functional.mean(data, 1.0)
        assert data.size / result.acc.size == 4096


class TestUnaryElementwise:
    def test_relu_zeroes_negatives(self):
        result = functional.relu(i8([[-3, 0, 5]]), 1.0)
        np.testing.assert_array_equal(result.acc, [[0, 0, 5]])

    def test_tanh_lut_monotonic_and_bounded(self):
        data = i8(np.arange(-128, 128).reshape(16, 16))
        result = functional.tanh(data, 32.0)
        assert result.acc.min() >= -127 and result.acc.max() <= 127
        flat = result.acc.ravel()
        assert np.all(np.diff(flat) >= 0)

    def test_tanh_accuracy_against_float(self):
        data_raw = np.linspace(-2, 2, 64)
        scale = 127 / 2.0
        q = np.clip(np.rint(data_raw * scale), -128, 127).astype(np.int8)
        result = functional.tanh(q.reshape(8, 8), scale)
        approx = result.acc.ravel() / result.acc_scale
        assert np.abs(approx - np.tanh(data_raw)).max() < 0.02


class TestDispatch:
    def test_execute_routes_each_opcode(self):
        p = QuantParams(scale=1.0)
        data = i8(np.arange(16).reshape(4, 4) - 8)
        cases = [
            Instruction(Opcode.CONV2D, data, p, model=i8([[1]]), model_params=p),
            Instruction(Opcode.FULLY_CONNECTED, i8([1, 2]), p, model=i8([[1], [1]]), model_params=p),
            Instruction(Opcode.ADD, data, p, model=data, model_params=p),
            Instruction(Opcode.SUB, data, p, model=data, model_params=p),
            Instruction(Opcode.MUL, data, p, model=data, model_params=p),
            Instruction(Opcode.CROP, data, p, attrs={"crop_box": (0, 0, 2, 2)}),
            Instruction(Opcode.EXT, data, p, attrs={"ext_shape": (6, 6)}),
            Instruction(Opcode.MEAN, data, p),
            Instruction(Opcode.MAX, data, p),
            Instruction(Opcode.TANH, data, p),
            Instruction(Opcode.RELU, data, p),
        ]
        for instr in cases:
            result = functional.execute(instr)
            assert result.acc.size > 0, instr.opcode

    def test_instruction_validates_model_presence(self):
        p = QuantParams(scale=1.0)
        with pytest.raises(ValueError):
            Instruction(Opcode.ADD, i8([[1]]), p)  # missing model
        with pytest.raises(ValueError):
            Instruction(Opcode.RELU, i8([[1]]), p, model=i8([[1]]), model_params=p)

    def test_instruction_requires_int8(self):
        p = QuantParams(scale=1.0)
        with pytest.raises(TypeError):
            Instruction(Opcode.RELU, np.ones((2, 2)), p)

    def test_opcode_classification(self):
        assert Opcode.CONV2D.takes_model
        assert Opcode.ADD.is_pairwise
        assert Opcode.MEAN.is_reduction and not Opcode.MEAN.takes_model
        assert Opcode.CROP.is_data_movement
        assert Opcode.TANH.is_elementwise_unary
        assert Opcode.RELU.opname == "ReLu"
