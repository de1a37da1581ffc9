"""Tests for the model builders (§3.3 TFLite flow vs §6.2.3 Tensorizer)."""

import numpy as np
import pytest

from repro.config import EdgeTPUConfig
from repro.edgetpu.compiler import ReferenceCompiler, TensorizerModelBuilder
from repro.edgetpu.quantize import QuantParams
from repro.edgetpu.timing import TimingModel


def matrix(n=64, seed=0):
    return np.random.default_rng(seed).uniform(-1, 1, size=(n, n))


def test_both_builders_produce_identical_blobs():
    raw = matrix()
    params = QuantParams(scale=100.0)
    slow = ReferenceCompiler().compile(raw, params)
    fast = TensorizerModelBuilder().compile(raw, params)
    assert slow.blob == fast.blob


def test_compiled_model_parses_back():
    raw = matrix(16, seed=2)
    compiled = TensorizerModelBuilder().compile(raw)
    parsed = compiled.parsed()
    assert parsed.data.shape == (16, 16)
    recovered = parsed.data.astype(np.float64) / parsed.params.scale
    assert np.abs(recovered - raw).max() <= parsed.params.step / 2 + 1e-12


def test_auto_params_cover_data():
    raw = matrix(8, seed=3) * 50
    compiled = TensorizerModelBuilder().compile(raw)
    assert np.abs(parsed_range := compiled.parsed().data).max() <= 127
    assert parsed_range.min() >= -128


def test_tensorizer_is_about_1500x_faster_at_2k():
    timing = TimingModel(EdgeTPUConfig())
    elems = 2048 * 2048
    speedup = timing.tflite_compile_seconds(elems) / timing.tensorizer_build_seconds(elems)
    assert speedup == pytest.approx(1500, rel=0.05)


def test_reference_cost_matches_paper_at_2k():
    compiled = ReferenceCompiler().compile(np.zeros((64, 64)) + 1.0)
    # 64x64 is much cheaper than 2K x 2K but still pays interpreter startup.
    assert 0.3 <= compiled.build_seconds < 2.7


def test_builder_statistics_accumulate():
    builder = TensorizerModelBuilder()
    builder.compile(matrix(8))
    builder.compile(matrix(8, seed=1))
    assert builder.models_built == 2
    assert builder.total_seconds > 0


def test_non_2d_input_rejected():
    with pytest.raises(ValueError, match="2-D"):
        TensorizerModelBuilder().compile(np.zeros(5))


def test_cost_grows_with_size():
    builder = TensorizerModelBuilder()
    small = builder.compile(matrix(16)).build_seconds
    large = builder.compile(matrix(256)).build_seconds
    assert large > small
