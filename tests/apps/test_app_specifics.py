"""Per-application behavioural tests (§7.2 instruction mixes & semantics)."""

import numpy as np
import pytest

from repro.apps import (
    BackpropApp,
    BlackScholesApp,
    GaussianApp,
    GemmApp,
    HotSpot3DApp,
    LUDApp,
    PageRankApp,
)
from repro.apps.blackscholes import CNDF_COEFFS, cndf_poly_reference
from repro.apps.lud import make_dd_matrix, packed_lu_cpu
from repro.apps.pagerank import make_link_matrix
from repro.host.platform import Platform
from repro.metrics import rmse_percent
from repro.runtime.api import OpenCtpu
from scipy.special import ndtr


def opcodes_used(app, inputs, tpus=1):
    """Which device opcodes the app's GPTPU implementation issues."""
    platform = Platform.with_tpus(tpus)
    ctx = OpenCtpu(platform)
    seen = set()
    original = ctx.tensorizer.lower

    def spy(request):
        seen.add(request.opcode.opname)
        return original(request)

    ctx.tensorizer.lower = spy
    app.run_gptpu(inputs, ctx)
    return seen


class TestPageRank:
    def test_link_matrix_is_column_stochastic(self):
        link = make_link_matrix(64, seed=0)
        np.testing.assert_allclose(link.sum(axis=0), np.ones(64), atol=1e-12)

    def test_rank_is_a_probability_vector(self):
        app = PageRankApp()
        inputs = app.generate(seed=0, n=128, iterations=10)
        platform = Platform.with_tpus(1)
        result = app.run_cpu(inputs, platform.cpu)
        assert result.value.sum() == pytest.approx(1.0, abs=1e-6)
        assert (result.value >= 0).all()

    def test_matches_networkx_pagerank(self):
        import networkx as nx

        app = PageRankApp()
        n = 96
        inputs = app.generate(seed=2, n=n, iterations=60)
        platform = Platform.with_tpus(1)
        ours = app.run_cpu(inputs, platform.cpu).value
        # Rebuild the same graph and compare to networkx's solver.
        graph = nx.gnm_random_graph(n, n * 16, seed=2, directed=True)
        expect = nx.pagerank(graph, alpha=0.85, tol=1e-10)
        expect_vec = np.array([expect[i] for i in range(n)])
        assert rmse_percent(ours, expect_vec) < 1.0

    def test_uses_only_fully_connected(self):
        app = PageRankApp()
        inputs = app.generate(seed=0, n=128, iterations=3)
        assert opcodes_used(app, inputs) == {"FullyConnected"}

    def test_adjacency_cached_after_first_iteration(self):
        app = PageRankApp()
        inputs = app.generate(seed=0, n=128, iterations=6)
        platform = Platform.with_tpus(1)
        ctx = OpenCtpu(platform)
        app.run_gptpu(inputs, ctx)
        transfers = [r for r in platform.tracer if r.kind == "transfer"]
        # Adjacency (128x128 = 16 KB + overhead) moves once; later
        # iterations only ship the rank vector and results.
        big = [t for t in transfers if t.meta["nbytes"] > 10_000]
        assert len(big) == 1


class TestHotSpot3D:
    def test_heat_diffuses_toward_equilibrium(self):
        app = HotSpot3DApp()
        inputs = app.generate(seed=0, n=64, layers=2, iterations=6)
        inputs["power"][:] = 0.0
        platform = Platform.with_tpus(1)
        out = app.run_cpu(inputs, platform.cpu).value
        # Without power injection the spread of temperatures shrinks.
        assert out.std() < inputs["temps"].std()

    def test_power_injection_heats_the_chip(self):
        app = HotSpot3DApp()
        inputs = app.generate(seed=0, n=64, layers=2, iterations=4)
        cold = dict(inputs, power=np.zeros_like(inputs["power"]))
        platform = Platform.with_tpus(1)
        hot_out = app.run_cpu(inputs, platform.cpu).value
        cold_out = app.run_cpu(cold, platform.cpu).value
        assert hot_out.mean() > cold_out.mean()

    def test_uses_conv2d(self):
        app = HotSpot3DApp()
        inputs = app.generate(seed=0, n=64, layers=2, iterations=2)
        assert opcodes_used(app, inputs) == {"conv2D"}


class TestLUD:
    def test_dd_matrix_is_diagonally_dominant(self):
        a = make_dd_matrix(32, seed=1)
        off_diag = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
        assert (np.abs(np.diag(a)) > off_diag * 0.99).all()

    def test_packed_lu_reconstructs_input(self):
        a = make_dd_matrix(24, seed=2)
        packed = packed_lu_cpu(a)
        l = np.tril(packed, -1) + np.eye(24)
        np.testing.assert_allclose(l @ np.triu(packed), a, rtol=1e-10)

    def test_uses_crop_and_conv2d(self):
        app = LUDApp()
        inputs = app.generate(seed=0, n=160)
        used = opcodes_used(app, inputs)
        assert "crop" in used and "conv2D" in used

    def test_reconstruction_close_to_input(self):
        app = LUDApp()
        inputs = app.generate(seed=3, n=160)
        ctx = OpenCtpu(Platform.with_tpus(1))
        out = app.run_gptpu(inputs, ctx)
        assert rmse_percent(out.value, inputs["a"]) < 0.5


class TestGaussian:
    def test_solution_solves_the_system(self):
        app = GaussianApp()
        inputs = app.generate(seed=4, n=160)
        platform = Platform.with_tpus(1)
        x = app.run_cpu(inputs, platform.cpu).value
        np.testing.assert_allclose(inputs["a"] @ x, inputs["b"], atol=1e-8)

    def test_gptpu_solution_accurate(self):
        app = GaussianApp()
        inputs = app.generate(seed=5, n=160)
        ctx = OpenCtpu(Platform.with_tpus(1))
        x = app.run_gptpu(inputs, ctx).value
        residual = np.abs(inputs["a"] @ x - inputs["b"]).max()
        assert residual < 0.05

    def test_uses_mul_and_conv2d(self):
        app = GaussianApp()
        inputs = app.generate(seed=0, n=160)
        used = opcodes_used(app, inputs)
        assert "mul" in used and "conv2D" in used


class TestBackprop:
    def test_training_reduces_loss(self):
        app = BackpropApp()
        params = {"batch": 64, "n_in": 128, "n_hidden": 64, "n_out": 8}
        inputs = app.generate(seed=6, **params)
        x, t = inputs["x"], inputs["target"]
        before = np.tanh(np.tanh(x @ inputs["w1"] + inputs["b1"]) @ inputs["w2"] + inputs["b2"])
        w1, w2 = app._train_step_float(x, t, inputs["w1"], inputs["w2"], inputs["b1"], inputs["b2"])
        after = np.tanh(np.tanh(x @ w1 + inputs["b1"]) @ w2 + inputs["b2"])
        assert np.mean((t - after) ** 2) < np.mean((t - before) ** 2)

    def test_uses_the_7_2_5_instruction_mix(self):
        app = BackpropApp()
        inputs = app.generate(seed=0, batch=64, n_in=128, n_hidden=64, n_out=8)
        used = opcodes_used(app, inputs)
        assert {"conv2D", "tanh", "mul", "add"} <= used


class TestBlackScholes:
    def test_cndf_polynomial_fits_phi(self):
        xs = np.linspace(-3.5, 3.5, 500)
        assert np.abs(cndf_poly_reference(xs) - ndtr(xs)).max() < 2e-3

    def test_polynomial_is_ninth_degree(self):
        assert len(CNDF_COEFFS) == 10

    def test_prices_positive_and_bounded(self):
        app = BlackScholesApp()
        inputs = app.generate(seed=7, n_options=1024)
        platform = Platform.with_tpus(1)
        prices = app.run_cpu(inputs, platform.cpu).value
        assert (prices > -1e-9).all()
        assert (prices <= inputs["spot"] + 1e-9).all()

    def test_uses_mul_only(self):
        app = BlackScholesApp()
        inputs = app.generate(seed=0, n_options=1024)
        assert opcodes_used(app, inputs) == {"mul"}

    def test_grid_cached_across_horner_steps(self):
        app = BlackScholesApp()
        inputs = app.generate(seed=0, n_options=64 * 64)
        platform = Platform.with_tpus(1)
        ctx = OpenCtpu(platform)
        app.run_gptpu(inputs, ctx)
        # 18 muls (9 per CNDF x 2); the grid tile moves twice (d1, d2),
        # not 18 times.
        transfers = [r for r in platform.tracer if r.kind == "transfer"]
        grid_sized = [t for t in transfers if t.meta["nbytes"] == 64 * 64]
        # in-bound grid+acc pairs and out-bound results share this size;
        # caching keeps the count well below 3 per mul.
        assert len(grid_sized) <= 2 * 18 + 2


class TestGemmApp:
    def test_fc_method_variant(self):
        app = GemmApp(method="fc")
        inputs = app.generate(seed=8, n=96)
        ctx = OpenCtpu(Platform.with_tpus(1))
        out = app.run_gptpu(inputs, ctx)
        assert rmse_percent(out.value, inputs["a"] @ inputs["b"]) < 1.0

    def test_conv2d_method_faster_than_fc(self):
        inputs = GemmApp().generate(seed=9, n=256)
        conv = GemmApp(method="conv2d").run_gptpu(inputs, OpenCtpu(Platform.with_tpus(1)))
        fc = GemmApp(method="fc").run_gptpu(inputs, OpenCtpu(Platform.with_tpus(1)))
        assert fc.wall_seconds > 3 * conv.wall_seconds
