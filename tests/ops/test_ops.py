"""Tests for the optimized operator library (repro.ops)."""

import numpy as np
import pytest
from scipy.signal import correlate2d

from repro.errors import RuntimeAPIError
from repro.host.platform import Platform
from repro.metrics import rmse_percent
from repro.ops import (
    tpu_add,
    tpu_crop,
    tpu_stencil2d,
    tpu_gemm,
    tpu_matvec,
    tpu_max,
    tpu_mean,
    tpu_mul,
    tpu_pad,
    tpu_relu,
    tpu_sub,
    tpu_tanh,
)
from repro.runtime.api import OpenCtpu


@pytest.fixture()
def ctx():
    return OpenCtpu(Platform.with_tpus(2))


def rand(shape, seed=0, lo=0.0, hi=4.0):
    return np.random.default_rng(seed).uniform(lo, hi, shape)


class TestGemm:
    def test_conv2d_method_matches_numpy(self, ctx):
        a, b = rand((80, 60), 1), rand((60, 50), 2)
        out = tpu_gemm(ctx, a, b)
        assert rmse_percent(out, a @ b) < 1.0

    def test_fc_method_matches_numpy(self, ctx):
        a, b = rand((64, 64), 3), rand((64, 64), 4)
        out = tpu_gemm(ctx, a, b, method="fc")
        assert rmse_percent(out, a @ b) < 1.0

    def test_unknown_method_rejected(self, ctx):
        with pytest.raises(RuntimeAPIError, match="unknown GEMM method"):
            tpu_gemm(ctx, rand((4, 4)), rand((4, 4)), method="quantum")

    def test_shape_mismatch_rejected(self, ctx):
        with pytest.raises(RuntimeAPIError, match="incompatible"):
            tpu_gemm(ctx, rand((4, 5)), rand((4, 5)))

    def test_out_buffer_filled(self, ctx):
        a, b = rand((32, 32), 5), rand((32, 32), 6)
        out_buf = ctx.create_buffer(ctx.alloc_dimension(2, 32, 32))
        tpu_gemm(ctx, a, b, out=out_buf)
        assert out_buf.data is not None

    def test_chunks_cap_limits_parallel_groups(self, ctx):
        a, b = rand((512, 128), 7), rand((128, 128), 8)
        tpu_gemm(ctx, a, b, chunks=2)
        op = ctx._pending[-1]
        assert len({i.group_key for i in op.instrs}) <= 2

    def test_matvec_matches_numpy(self, ctx):
        vec = rand((96,), 9)
        mat = rand((96, 48), 10)
        out = tpu_matvec(ctx, vec, mat)
        assert rmse_percent(out, vec @ mat) < 1.0

    def test_matvec_validates_shapes(self, ctx):
        with pytest.raises(RuntimeAPIError):
            tpu_matvec(ctx, rand((5,)), rand((6, 4)))
        with pytest.raises(RuntimeAPIError):
            tpu_matvec(ctx, rand((5, 5)), rand((5, 4)))


class TestElementwise:
    def test_add_sub_mul(self, ctx):
        a, b = rand((40, 40), 11), rand((40, 40), 12)
        assert rmse_percent(tpu_add(ctx, a, b), a + b) < 1.0
        assert rmse_percent(tpu_sub(ctx, a, b), a - b) < 1.0
        assert rmse_percent(tpu_mul(ctx, a, b), a * b) < 1.0

    def test_tanh_relu(self, ctx):
        a = rand((30, 30), 13, lo=-3, hi=3)
        assert np.abs(tpu_tanh(ctx, a) - np.tanh(a)).max() < 0.03
        assert rmse_percent(tpu_relu(ctx, a), np.maximum(a, 0)) < 1.0

    def test_data_name_enables_caching(self, ctx):
        a, b = rand((32, 32), 14), rand((32, 32), 15)
        tpu_mul(ctx, a, b, data_name="grid")
        op = ctx._pending[-1]
        assert all(i.cache_key.startswith("grid:") for i in op.instrs)


class TestReductions:
    def test_mean_and_max(self, ctx):
        a = rand((70, 90), 16)
        assert tpu_mean(ctx, a) == pytest.approx(a.mean(), rel=0.02)
        assert tpu_max(ctx, a) == pytest.approx(a.max(), rel=0.02)

    def test_reductions_return_python_floats(self, ctx):
        a = rand((16, 16), 17)
        assert isinstance(tpu_mean(ctx, a), float)
        assert isinstance(tpu_max(ctx, a), float)


class TestConvCropPad:
    def test_conv2d_stencil(self, ctx):
        a = rand((60, 60), 18)
        k = np.ones((3, 3)) / 9.0
        out = tpu_stencil2d(ctx, a, k)
        assert rmse_percent(out, correlate2d(a, k, mode="valid")) < 1.5

    def test_conv2d_model_name_caches_kernel(self, ctx):
        a = rand((60, 60), 19)
        k = np.ones((3, 3)) / 9.0
        tpu_stencil2d(ctx, a, k, model_name="stencil")
        op = ctx._pending[-1]
        assert all(i.model_cache_key == "stencil" for i in op.instrs)

    def test_crop(self, ctx):
        a = rand((12, 12), 20)
        out = tpu_crop(ctx, a, (2, 3, 4, 5))
        assert out.shape == (4, 5)
        assert rmse_percent(out, a[2:6, 3:8]) < 1.0

    def test_pad(self, ctx):
        a = rand((4, 4), 21)
        out = tpu_pad(ctx, a, (8, 8), (2, 2))
        assert out.shape == (8, 8)
        assert out[0, 0] == 0.0
        assert rmse_percent(out[2:6, 2:6], a) < 1.0
