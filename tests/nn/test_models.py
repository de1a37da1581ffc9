"""repro.nn layers and models: shapes, determinism, attribution."""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.conformance.reference import reference_runtime
from repro.errors import RuntimeAPIError
from repro.host.platform import Platform
from repro.nn import (
    Attention,
    Conv2d,
    Dense,
    Flatten,
    Pool2d,
    Sequential,
    attention,
    lenet,
    sample_input,
)
from repro.ops import tpu_gemm
from repro.plan.cache import PlanCache
from repro.runtime.api import OpenCtpu


def _ctx(tpus: int = 2, **kw) -> OpenCtpu:
    return OpenCtpu(Platform(SystemConfig().with_tpus(tpus)), **kw)


def _drain(ctx):
    if ctx.pending_operations:
        ctx.sync()


class TestLayers:
    def test_pool2d_nchw_shapes_and_values(self):
        ctx = _ctx()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 8, 6)) * 4.0
        out = Pool2d(window=2)(ctx, x)
        _drain(ctx)
        assert out.shape == (2, 3, 4, 3)
        # Max pooling at the default scale is exact in int8.
        truth = x.reshape(2, 3, 4, 2, 3, 2).max(axis=(3, 5))
        assert np.abs(out - truth).max() < 0.1

    def test_dense_matches_gemm_semantics(self):
        ctx = _ctx()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(7, 33))
        w = rng.normal(size=(33, 9))
        dense_out = Dense(w)(ctx, x)
        gemm_out = tpu_gemm(_ctx(), x, w)
        _drain(ctx)
        assert dense_out.shape == (7, 9)
        # Different epilogues (per-channel vs global requantize) mean
        # close, not bit-identical.
        scale = max(np.abs(x @ w).max(), 1e-9)
        assert np.abs(dense_out - gemm_out).max() / scale < 0.05

    def test_dense_relu_clamps_negatives(self):
        ctx = _ctx()
        rng = np.random.default_rng(2)
        out = Dense(rng.normal(size=(12, 5)), relu=True)(
            ctx, rng.normal(size=(6, 12))
        )
        _drain(ctx)
        assert np.all(out >= 0.0)

    def test_layer_shape_validation(self):
        ctx = _ctx()
        with pytest.raises(RuntimeAPIError):
            Flatten()(ctx, np.zeros((3, 3)))
        with pytest.raises(RuntimeAPIError):
            Dense(np.zeros((4, 2)))(ctx, np.zeros((1, 5)))
        with pytest.raises(RuntimeAPIError):
            Conv2d(np.zeros((2, 2)))
        with pytest.raises(RuntimeAPIError):
            Attention(np.zeros((4, 2)), np.zeros((4, 3)), np.zeros((4, 2)))

    def test_sequential_rejects_duplicate_names(self):
        with pytest.raises(RuntimeAPIError):
            Sequential([("a", Flatten()), ("a", Flatten())])


class TestModels:
    def test_lenet_is_seed_deterministic(self):
        m1, m2 = lenet(seed=11), lenet(seed=11)
        x = sample_input(m1, batch=1, seed=11)
        o1 = m1.forward(_ctx(), x)
        o2 = m2.forward(_ctx(), x)
        assert o1.tobytes() == o2.tobytes()
        assert lenet(seed=12).forward(_ctx(), x).tobytes() != o1.tobytes()

    def test_lenet_outputs_probabilities(self):
        m = lenet(seed=0)
        ctx = _ctx()
        out = m.forward(ctx, sample_input(m, batch=3, seed=0))
        _drain(ctx)
        assert out.shape == (3, 10)
        assert np.all(out >= 0.0)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 0.05

    def test_attention_matches_float_reference(self):
        m = attention(seed=4)
        x = sample_input(m, seed=4)
        out = m.forward(_ctx(), x)
        wq, wk, wv = m.layers[0][1].wq, m.layers[0][1].wk_scaled, m.layers[0][1].wv
        scores = (x @ wq) @ (x @ wk).T
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        truth = (e / e.sum(axis=1, keepdims=True)) @ (x @ wv)
        assert out.shape == truth.shape
        scale = np.abs(truth).max()
        assert np.abs(out - truth).max() / scale < 0.10

    def test_per_layer_reports_cover_device_layers(self):
        m = lenet(seed=1)
        ctx = _ctx()
        m.forward(ctx, sample_input(m, batch=1, seed=1), sync_per_layer=True)
        names = [r["layer"] for r in m.layer_reports]
        # Flatten does no device work and must not produce a report.
        assert "flatten" not in names
        assert names == ["conv1", "pool1", "conv2", "pool2",
                         "dense1", "dense2", "dense3", "softmax"]
        assert all(r["wall_seconds"] > 0.0 for r in m.layer_reports)

    def test_plan_cache_reuse_across_inferences(self):
        cache = PlanCache()
        ctx = _ctx(plan_cache=cache)
        m = lenet(seed=2)
        x = sample_input(m, batch=1, seed=2)
        first = m.forward(ctx, x)
        _drain(ctx)
        binds_before = cache.binds
        second = m.forward(ctx, x)
        _drain(ctx)
        assert first.tobytes() == second.tobytes()
        assert cache.binds > binds_before

    def test_scalar_and_vectorized_agree_bitwise(self):
        m = attention(seed=6)
        x = sample_input(m, seed=6)
        vec = m.forward(_ctx(), x)
        ref = m.forward(reference_runtime(Platform(SystemConfig().with_tpus(2))), x)
        assert vec.tobytes() == ref.tobytes()
