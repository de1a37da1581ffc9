"""Unit and property tests for 8-bit quantization (paper §3.3, §6.2.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import QuantizationError
from repro.edgetpu.quantize import (
    QMAX,
    QMIN,
    QuantParams,
    data_range,
    dequantize,
    operator_output_scale,
    params_for_data,
    params_for_range,
    quantize,
)


class TestQuantParams:
    def test_step_is_inverse_scale(self):
        assert QuantParams(scale=4.0).step == pytest.approx(0.25)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_scale_rejected(self, bad):
        with pytest.raises(QuantizationError):
            QuantParams(scale=bad)


class TestRangeParams:
    """``params_for_range`` edge cases the lowering rules rely on."""

    def test_negative_zero_folds_into_positive_zero(self):
        assert params_for_range(-0.0) == params_for_range(0.0) == QuantParams(scale=1.0)

    def test_nan_range_rejected(self):
        with pytest.raises(
            QuantizationError, match="^cannot derive quantization parameters from NaN range$"
        ):
            params_for_range(float("nan"))

    @pytest.mark.parametrize("bad", [float("inf"), -float("inf"), -1.0, np.float64(-2.0)])
    def test_infinite_or_negative_range_rejected(self, bad):
        with pytest.raises(QuantizationError, match="finite and >= 0"):
            params_for_range(bad)

    @pytest.mark.parametrize("tiny", [5e-324, 1e-310])
    def test_denormal_range_quantizes_with_unit_scale(self, tiny):
        assert params_for_range(tiny).scale == 1.0

    def test_numpy_ranges_yield_float_scales(self):
        params = params_for_range(np.float64(3.5))
        assert type(params.scale) is float and params == params_for_range(3.5)


class TestRoundTrip:
    def test_integers_within_range_are_exact(self):
        data = np.arange(-127, 128, dtype=np.float64).reshape(5, 51)
        params = QuantParams(scale=1.0)
        q = quantize(data, params)
        np.testing.assert_array_equal(dequantize(q, params), data)

    def test_quantize_clips_to_int8(self):
        params = QuantParams(scale=1.0)
        q = quantize(np.array([300.0, -300.0]), params)
        assert q.tolist() == [QMAX, QMIN]

    def test_params_for_data_covers_max_abs(self):
        data = np.array([-5.0, 2.0, 4.9])
        params = params_for_data(data)
        q = quantize(data, params)
        assert q.min() >= QMIN and q.max() <= QMAX
        assert q[0] == -127  # the extreme value maps to full range

    def test_round_trip_error_bounded_by_half_step(self):
        rng = np.random.default_rng(7)
        data = rng.uniform(-10, 10, size=(64, 64))
        params = params_for_data(data)
        err = np.abs(dequantize(quantize(data, params), params) - data)
        assert err.max() <= params.step / 2 + 1e-12

    def test_zero_data_round_trips(self):
        params = params_for_range(0.0)
        data = np.zeros((3, 3))
        np.testing.assert_array_equal(dequantize(quantize(data, params), params), data)

    def test_non_finite_data_rejected(self):
        with pytest.raises(QuantizationError):
            quantize(np.array([1.0, np.nan]), QuantParams(scale=1.0))
        with pytest.raises(QuantizationError):
            params_for_data(np.array([np.inf]))

    def test_empty_data_rejected(self):
        with pytest.raises(QuantizationError):
            params_for_data(np.array([]))

    def test_quantization_rmse_small_for_wide_scale(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(-1, 1, size=1000)
        params = params_for_data(data)
        rmse = np.sqrt(np.mean((data - dequantize(quantize(data, params), params)) ** 2))
        # Uniform quantization noise: step / sqrt(12).
        assert rmse <= params_for_data(data).step / np.sqrt(12) * 1.2

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(1, 8)),
            elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_property_round_trip_within_half_step(self, data):
        params = params_for_data(data)
        err = np.abs(dequantize(quantize(data, params), params) - data)
        assert np.all(err <= params.step / 2 * (1 + 1e-9))

    @given(st.floats(1e-6, 1e9, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_property_extreme_maps_to_qmax(self, max_abs):
        params = params_for_range(max_abs)
        assert quantize(np.array([max_abs]), params)[0] == QMAX
        assert quantize(np.array([-max_abs]), params)[0] == -QMAX


class TestScalingFactorRules:
    """§6.2.2 Eqs. 5–8."""

    def test_matrix_operator_scale_eq5(self):
        # S = 1 / (|max-min|^2 * N)
        assert operator_output_scale("conv2D", 0.0, 2.0, n=8) == pytest.approx(1 / (4 * 8))
        assert operator_output_scale("FullyConnected", -1.0, 1.0, n=4) == pytest.approx(1 / 16)

    def test_add_sub_scale_eq6(self):
        assert operator_output_scale("add", 0.0, 5.0) == pytest.approx(1 / 10)
        assert operator_output_scale("sub", -5.0, 5.0) == pytest.approx(1 / 20)

    def test_mul_scale_eq7(self):
        assert operator_output_scale("mul", 0.0, 3.0) == pytest.approx(1 / 9)

    def test_other_ops_scale_eq8(self):
        assert operator_output_scale("tanh", 0.0, 4.0) == pytest.approx(1 / 4)
        assert operator_output_scale("crop", -2.0, 2.0) == pytest.approx(1 / 4)

    def test_paper_worked_example(self):
        # §6.2.2: GEMM then add on N×N data in [0, n-1]: max output
        # 2·N·(n-1)²; here via the conv2D bound with span n-1.
        n, N = 8, 16
        bound = 1.0 / operator_output_scale("conv2D", 0.0, n - 1.0, n=N)
        assert bound == pytest.approx((n - 1) ** 2 * N)

    def test_scale_prevents_overflow_for_uniform_data(self):
        # Quantizing GEMM outputs with Eq. 5's S never saturates.
        rng = np.random.default_rng(3)
        n = 32
        a = rng.uniform(0, 4, size=(n, n))
        b = rng.uniform(0, 4, size=(n, n))
        out = a @ b
        s = operator_output_scale("FullyConnected", 0.0, 4.0, n=n)
        q = np.rint(out * s)
        assert np.abs(q).max() <= QMAX

    def test_matrix_operator_requires_positive_n(self):
        with pytest.raises(QuantizationError):
            operator_output_scale("conv2D", 0.0, 1.0, n=0)

    def test_constant_input_falls_back_to_magnitude(self):
        assert operator_output_scale("mul", 2.0, 2.0) == pytest.approx(1 / 4)
        assert operator_output_scale("add", 0.0, 0.0) == 1.0


class TestRangeHelpers:
    def test_data_range_spans_all_arrays(self):
        lo, hi = data_range(np.array([1.0, 2.0]), np.array([-3.0, 0.5]))
        assert (lo, hi) == (-3.0, 2.0)

    def test_data_range_requires_arrays(self):
        with pytest.raises(QuantizationError):
            data_range()


class TestDenormalRanges:
    """Regression: denormal-range data must never yield inf/NaN scales.

    ``operator_output_scale`` guards its own closed forms, but the
    effective factor is ``127 * S`` — which used to overflow to inf for
    S near the float max (denormal input ranges) and then trip the
    QuantParams finite-positive validator deep inside lowering.
    """

    def test_output_params_survive_denormal_range(self):
        from repro.edgetpu.quantize import output_quant_params

        tiny = 1.11253693e-308  # the hypothesis counterexample
        for opname in ("conv2D", "add", "mul", "relu"):
            params = output_quant_params(opname, -tiny, tiny, n=1)
            assert np.isfinite(params.scale) and params.scale > 0

    def test_operator_output_scale_stays_finite(self):
        tiny = 5e-324  # smallest subnormal
        for opname in ("conv2D", "FullyConnected", "add", "sub", "mul", "relu"):
            scale = operator_output_scale(opname, -tiny, tiny, n=4)
            assert np.isfinite(scale) and scale > 0

    def test_normal_ranges_unaffected_by_the_guard(self):
        from repro.edgetpu.quantize import output_quant_params

        params = output_quant_params("add", 0.0, 4.0)
        assert params.scale == pytest.approx(QMAX / 8.0)
