"""Batched-vs-scalar lowering equivalence (hypothesis property tests).

The vectorized Tensorizer path must be a pure performance transform: for
every operation it has to produce bit-identical results (``tobytes``
equality, not mere closeness), the same saturation counts, the same CPU
aggregation seconds, and a byte-for-byte identical ``LoweredInstr``
stream as the scalar reference oracle (``vectorized=False``).  These
tests drive both paths over random shapes — including ragged edge tiles
— and degenerate data (zeros, constants, all-negative matrices).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edgetpu.isa import Opcode
from repro.edgetpu.quantize import params_for_data, quantize
from repro.edgetpu.quantize import (
    batch_max_abs,
    quantize_batched,
    quantize_tiles,
    scales_for_ranges,
)
from repro.errors import QuantizationError
from repro.plan import PlanCache
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime import tensorizer as tensorizer_module
from repro.runtime.tensorizer import Tensorizer, TensorizerOptions
from repro.runtime.tiling import fill_padding, iter_tiles, scatter_tiles, stack_tiles

quant_modes = st.sampled_from([QuantMode.SCALE, QuantMode.GLOBAL])
# Cross the 128 (arithmetic) and 64 (reduction) tile edges so ragged
# right/bottom/corner tiles are exercised, not just full tiles.  The
# sampled branch over-weights primes and off-by-one neighbours of the
# tile sizes (127/129 straddle the arithmetic tile, 255 the 2x edge,
# 63/65 the reduction tile) — uniform draws rarely land exactly there.
dims = st.one_of(
    st.integers(1, 160),
    st.sampled_from([63, 65, 127, 129, 255]),
)
seeds = st.integers(0, 2**32 - 1)


def make_request(op, *inputs, quant=QuantMode.SCALE, **attrs):
    return OperationRequest(
        task_id=3,
        opcode=op,
        inputs=tuple(np.asarray(x, dtype=np.float64) for x in inputs),
        quant=quant,
        attrs=attrs,
        input_name="equiv",
    )


def data(rng, shape, style):
    if style == "zeros":
        return np.zeros(shape)
    if style == "negative":
        return -rng.uniform(0.5, 9.0, shape)
    if style == "constant":
        return np.full(shape, 3.25)
    if style == "sparse":
        out = rng.normal(size=shape) * 5
        out[rng.random(shape) < 0.7] = 0.0
        return out
    return rng.normal(size=shape) * 5


styles = st.sampled_from(["normal", "zeros", "negative", "constant", "sparse"])


def assert_equivalent(build_request, **options):
    """Lower one request through both paths and demand exact equality."""
    vec = Tensorizer(options=TensorizerOptions(vectorized=True, **options))
    ref = Tensorizer(options=TensorizerOptions(vectorized=False, **options))
    lv = vec.lower(build_request())
    ls = ref.lower(build_request())
    rv, rs = np.asarray(lv.result), np.asarray(ls.result)
    assert rv.shape == rs.shape
    assert rv.tobytes() == rs.tobytes()
    assert lv.instrs == ls.instrs
    assert lv.saturated == ls.saturated
    assert lv.cpu_seconds == ls.cpu_seconds
    assert lv.instruction_count == ls.instruction_count
    assert vec.stats.instructions_emitted == ref.stats.instructions_emitted


class TestElementwiseEquivalence:
    @given(
        st.sampled_from([Opcode.ADD, Opcode.SUB, Opcode.MUL]),
        dims, dims, quant_modes, styles, seeds,
    )
    @settings(max_examples=60, deadline=None)
    def test_pairwise(self, op, rows, cols, quant, style, seed):
        rng = np.random.default_rng(seed)
        a = data(rng, (rows, cols), style)
        b = data(rng, (rows, cols), "normal")
        assert_equivalent(lambda: make_request(op, a, b, quant=quant))

    @given(
        st.sampled_from([Opcode.RELU, Opcode.TANH]),
        dims, dims, quant_modes, styles, seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_unary(self, op, rows, cols, quant, style, seed):
        rng = np.random.default_rng(seed)
        a = data(rng, (rows, cols), style)
        assert_equivalent(lambda: make_request(op, a, quant=quant))

    @given(
        st.sampled_from([Opcode.MEAN, Opcode.MAX]),
        dims, dims, quant_modes, styles, seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_reductions(self, op, rows, cols, quant, style, seed):
        rng = np.random.default_rng(seed)
        a = data(rng, (rows, cols), style)
        assert_equivalent(lambda: make_request(op, a, quant=quant))

    def test_max_on_all_negative_ragged_matrix(self):
        # Zero padding of ragged tiles must not leak into the maximum.
        a = -np.random.default_rng(0).uniform(1.0, 7.0, (130, 67))
        assert_equivalent(lambda: make_request(Opcode.MAX, a))


class TestMatrixEquivalence:
    @given(dims, dims, quant_modes, styles, seeds)
    @settings(max_examples=30, deadline=None)
    def test_matvec(self, m, n, quant, style, seed):
        rng = np.random.default_rng(seed)
        mat = data(rng, (m, n), style)
        vec = data(rng, (m,), "normal")
        assert_equivalent(
            lambda: make_request(
                Opcode.FULLY_CONNECTED, vec, mat, quant=quant, model_name="w"
            )
        )

    @given(
        st.integers(1, 96), st.integers(1, 96), st.integers(1, 96),
        quant_modes, styles, seeds,
    )
    @settings(max_examples=25, deadline=None)
    def test_gemm_fc(self, m, n, k, quant, style, seed):
        rng = np.random.default_rng(seed)
        a = data(rng, (m, n), style)
        b = data(rng, (n, k), "normal")
        assert_equivalent(
            lambda: make_request(Opcode.FULLY_CONNECTED, a, b, quant=quant)
        )

    @given(
        st.integers(1, 96), st.integers(1, 96), st.integers(1, 96),
        quant_modes, styles, seeds,
    )
    @settings(max_examples=25, deadline=None)
    def test_gemm_conv2d(self, m, n, k, quant, style, seed):
        rng = np.random.default_rng(seed)
        a = data(rng, (m, n), style)
        b = data(rng, (n, k), "normal")
        assert_equivalent(
            lambda: make_request(Opcode.CONV2D, a, b, quant=quant, gemm=True)
        )

    def test_gemm_conv2d_signed_zero_rows(self):
        # A zero row of A against an all-negative column of B drives the
        # accumulator through IEEE signed-zero territory; the float32
        # GEMM path must still match the scalar int8 round-trip exactly.
        a = np.random.default_rng(1).normal(size=(40, 33))
        a[7, :] = 0.0
        a[12, :] = -1e-9  # quantizes to zero
        b = -np.random.default_rng(2).uniform(0.5, 4.0, (33, 29))
        assert_equivalent(lambda: make_request(Opcode.CONV2D, a, b, gemm=True))

    @given(
        st.sampled_from([63, 65, 96, 127, 129]),
        st.sampled_from([63, 65, 96, 127, 129]),
        st.integers(1, 4), styles, seeds,
        st.sampled_from(["none", "cold", "warm"]),
        st.sampled_from(["off", "abft"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_gemm_coalesced_matches_solo_lowering(
        self, n, k, clients, style, seed, cache, integrity
    ):
        # The coalesced serving-path lowering shares one model operand
        # across clients.  Each member's stream must equal the scalar
        # oracle's lowering of the same request, up to the documented
        # sharing: members after the first (and every member of a warm
        # bind) ship member 0's already-built kernels — model-build
        # seconds 0 and no B-reshape cost — and every member names its
        # kernels by member 0's source.
        rng = np.random.default_rng(seed)
        b = data(rng, (n, k), "normal")

        def group(count):
            return [
                OperationRequest(
                    task_id=3 + i,
                    opcode=Opcode.CONV2D,
                    inputs=(data(rng, (64, n), style), b),
                    quant=QuantMode.SCALE,
                    attrs={"gemm": True, "model_name": "shared-b"},
                    input_name=f"client{i}",
                )
                for i in range(count)
            ]

        tz = Tensorizer(
            options=TensorizerOptions(integrity=integrity),
            plan_cache=None if cache == "none" else PlanCache(),
        )
        if cache == "warm":
            tz.lower_gemm_coalesced(group(2))
        requests = group(clients)
        coalesced = tz.lower_gemm_coalesced(requests)
        assert len(coalesced) == clients
        # Without a cache the plan is used once: never stored or counted.
        assert tz.stats.plan_captures == (0 if cache == "none" else 1)
        oracle = Tensorizer(options=TensorizerOptions(vectorized=False))
        s = math.isqrt(n - 1) + 1
        rows_only = oracle.cpu.elementwise_seconds(64 * s * s, bytes_per_elem=2)
        refs = [oracle.lower(request) for request in requests]
        for idx, (request, lowered, ref) in enumerate(zip(requests, coalesced, refs)):
            assert lowered.request is request
            got = np.asarray(lowered.result)
            assert got.tobytes() == np.asarray(ref.result).tobytes()
            assert lowered.saturated == ref.saturated
            shared = idx > 0 or cache == "warm"
            want = [
                replace(
                    ri,
                    model_cache_key=r0.model_cache_key,
                    model_build_seconds=0.0 if shared else ri.model_build_seconds,
                )
                for ri, r0 in zip(ref.instrs, refs[0].instrs)
            ]
            assert lowered.instrs == want
            assert lowered.cpu_seconds == (rows_only if shared else ref.cpu_seconds)
            if integrity == "off":
                assert lowered.integrity is None
            else:
                assert list(lowered.integrity.checks) == [i.label for i in ref.instrs]

    def test_gemm_conv2d_repeated_lowering_reuses_scratch(self):
        # Same-geometry re-lowering (iterative apps) hits the scratch
        # buffers; results must stay identical call over call.
        rng = np.random.default_rng(3)
        tz = Tensorizer()
        first = [
            tz.lower(make_request(Opcode.CONV2D, rng.normal(size=(50, 40)),
                                  rng.normal(size=(40, 30)), gemm=True)).result
            for _ in range(2)
        ]
        fresh = Tensorizer()
        rng = np.random.default_rng(3)
        second = [
            fresh.lower(make_request(Opcode.CONV2D, rng.normal(size=(50, 40)),
                                     rng.normal(size=(40, 30)), gemm=True)).result
            for _ in range(2)
        ]
        for x, y in zip(first, second):
            assert x.tobytes() == y.tobytes()


def range_requests(rng):
    """One request per rule that takes the Eqs. 5-8 range lazily."""
    a = data(rng, (150, 140), "sparse")
    a[:128, :128] = 0.0  # an all-zero tile has no measured bound
    b = data(rng, (150, 140), "normal")
    return {
        "add": lambda: make_request(Opcode.ADD, a, b),
        "mul": lambda: make_request(Opcode.MUL, a, b),
        "matvec": lambda: make_request(Opcode.FULLY_CONNECTED, b[:, 0], a, model_name="w"),
        "gemm_fc": lambda: make_request(Opcode.FULLY_CONNECTED, b[:40].T, a[:40]),
        "stencil": lambda: make_request(Opcode.CONV2D, a, np.full((3, 3), 1 / 9)),
    }


class TestLazyRange:
    """The Eqs. 5-8 range is scanned only when a tile needs it."""

    @pytest.mark.parametrize("rule", ["measured", "formula"])
    @pytest.mark.parametrize("name", ["add", "mul", "matvec", "gemm_fc", "stencil"])
    def test_fallback_tiles_match_scalar(self, name, rule):
        build = range_requests(np.random.default_rng(4))[name]
        assert_equivalent(build, scaling_rule=rule)

    @pytest.mark.parametrize("name", ["add", "mul", "matvec", "gemm_fc", "stencil"])
    def test_range_not_scanned_when_every_bound_is_measured(self, name, monkeypatch):
        rng = np.random.default_rng(5)
        a, b = rng.uniform(0.5, 2.0, (150, 140)), rng.uniform(0.5, 2.0, (150, 140))
        request = {
            "add": (Opcode.ADD, a, b),
            "mul": (Opcode.MUL, a, b),
            "matvec": (Opcode.FULLY_CONNECTED, b[:, 0], a),
            "gemm_fc": (Opcode.FULLY_CONNECTED, b[:40].T, a[:40]),
            "stencil": (Opcode.CONV2D, a, np.full((3, 3), 1 / 9)),
        }[name]

        class Unscanned(tensorizer_module._LazyRange):
            def __call__(self):
                raise AssertionError("Eqs. 5-8 range scanned")

        monkeypatch.setattr(tensorizer_module, "_LazyRange", Unscanned)
        Tensorizer().lower(make_request(*request))


class TestBatchedKernelEquivalence:
    @given(dims, dims, st.sampled_from([64, 128]), seeds)
    @settings(max_examples=40, deadline=None)
    def test_stack_scatter_roundtrip(self, rows, cols, tile, seed):
        a = np.random.default_rng(seed).normal(size=(rows, cols))
        stacked, tiles = stack_tiles(a, tile)
        assert len(tiles) == stacked.shape[0]
        for i, t in enumerate(tiles):
            h, w = t.shape()
            assert stacked[i, :h, :w].tobytes() == a[t.rows, t.cols].tobytes()
            assert not stacked[i, h:, :].any() and not stacked[i, :, w:].any()
        assert scatter_tiles(stacked, a.shape, tile).tobytes() == a.tobytes()

    @given(dims, dims, seeds)
    @settings(max_examples=40, deadline=None)
    def test_quantize_batched_matches_per_tile(self, rows, cols, seed):
        a = np.random.default_rng(seed).normal(size=(rows, cols)) * 9
        stacked, tiles = stack_tiles(a, 64)
        q = quantize_batched(stacked, scales_for_ranges(batch_max_abs(stacked)))
        for i, t in enumerate(tiles):
            view = a[t.rows, t.cols]
            h, w = t.shape()
            expect = quantize(view, params_for_data(view))
            assert q[i, :h, :w].tobytes() == expect.tobytes()

    @given(dims, dims, st.sampled_from([64, 128]), st.booleans(), seeds)
    @settings(max_examples=40, deadline=None)
    def test_quantize_tiles_matches_stack_then_quantize(self, rows, cols, tile, glob, seed):
        a = np.random.default_rng(seed).normal(size=(rows, cols)) * 9
        a[: rows // 2, : cols // 3] = 0.0  # all-zero tiles take scale 1
        a[rows // 2 :, : cols // 3] = -np.abs(a[rows // 2 :, : cols // 3])
        stacked, _ = stack_tiles(a, tile)
        scale = 0.25 if glob else None
        expect = (
            np.full(len(stacked), scale) if glob else scales_for_ranges(batch_max_abs(stacked))
        )
        q, scales = quantize_tiles(a, tile, scale)
        assert scales.tobytes() == expect.tobytes()
        assert q.tobytes() == quantize_batched(stacked, expect).tobytes()

    def test_quantize_tiles_rejects_what_batch_max_abs_rejects(self):
        for bad in (np.nan, np.inf, -np.inf):
            a = np.ones((150, 70))
            a[140, 3] = bad
            with pytest.raises(QuantizationError) as got:
                quantize_tiles(a, 64)
            with pytest.raises(QuantizationError) as want:
                batch_max_abs(stack_tiles(a, 64)[0])
            assert str(got.value) == str(want.value)
        with pytest.raises(QuantizationError, match="empty"):
            quantize_tiles(np.zeros((0, 4)), 64)

    def test_fill_padding_overwrites_only_padding(self):
        a = np.ones((70, 70))
        stacked, _ = stack_tiles(a, 64)
        fill_padding(stacked, a.shape, 64, -128)
        back = scatter_tiles(stacked, a.shape, 64)
        assert (back == 1.0).all()
        assert (stacked[-1, 6:, :] == -128).all()
