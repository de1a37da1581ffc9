"""Batched-vs-reference lowering equivalence (hypothesis property tests).

The batched Tensorizer rules must be a pure performance transform: for
every operation they have to produce bit-identical results (``tobytes``
equality, not mere closeness), the same saturation counts, the same CPU
aggregation seconds, and a byte-for-byte identical ``LoweredInstr``
stream as the per-tile oracle
(:class:`repro.conformance.reference.ReferenceTensorizer`).  These
tests drive both over random shapes — including ragged edge tiles — and
degenerate data (zeros, constants, all-negative matrices).

``EQUIVALENCE_EXAMPLES`` overrides every property's example count (CI
runs ~500 with a fixed ``--hypothesis-seed``).
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.reference import ReferenceTensorizer
from repro.edgetpu import functional
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
from repro.runtime.tiling import fill_padding, iter_tiles, stack_tiles

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

_EXAMPLES = os.environ.get("EQUIVALENCE_EXAMPLES")


def examples(default: int) -> settings:
    """Hypothesis settings: *default* examples unless the env overrides."""
    return settings(max_examples=int(_EXAMPLES or default), deadline=None)


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


def laid_out(matrix, layout, rng):
    """A non-contiguous view: *matrix* transposed back or strided, or
    its first row broadcast down (``"broadcast"``)."""
    rows, cols = matrix.shape
    if layout == "transposed":
        return np.ascontiguousarray(matrix.T).T
    if layout == "strided":
        parent = rng.normal(size=(2 * rows, 3 * cols))
        parent[::2, ::3] = matrix
        return parent[::2, ::3]
    return np.broadcast_to(matrix[:1], (rows, cols))  # one row, repeated


def assert_same_as_contiguous(op, operands, **kwargs):
    """Lowering views equals lowering their C-contiguous copies."""
    copies = [np.ascontiguousarray(x) for x in operands]
    views = Tensorizer().lower(make_request(op, *operands, **kwargs))
    dense = Tensorizer().lower(make_request(op, *copies, **kwargs))
    assert np.asarray(views.result).tobytes() == np.asarray(dense.result).tobytes()
    assert views.instrs == dense.instrs
    assert views.saturated == dense.saturated


def assert_equivalent(build_request, **options):
    """Lower one request through both paths and demand exact equality.

    The production path also lowers it with ``integrity="abft"``: the
    same result and stream, plus one check per instruction whose label,
    out scale and expected int8 tile are the reference's.
    """
    vec = Tensorizer(options=TensorizerOptions(**options))
    ref = ReferenceTensorizer(options=TensorizerOptions(**options))
    ref_out_scales = []
    output_params = ref._output_params

    def recorded_output_params(*args, **kwargs):
        params = output_params(*args, **kwargs)
        ref_out_scales.append(params.scale)
        return params

    ref._output_params = recorded_output_params
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

    checked = Tensorizer(options=TensorizerOptions(**{**options, "integrity": "abft"}))
    la = checked.lower(build_request())
    assert np.asarray(la.result).tobytes() == rs.tobytes()
    assert la.instrs == ls.instrs
    if la.integrity is None:
        return
    checks = list(la.integrity.checks.values())
    assert [c.label for c in checks] == [i.label for i in ls.instrs]
    assert [c.out_scale for c in checks] == ref_out_scales
    rebuilt = np.full_like(rs, np.nan)
    for c in checks:
        (r0, r1), (c0, c1) = c.rows, c.cols
        # result = q / out_scale, so rint recovers the int8 q exactly.
        want = np.rint(rs[r0:r1, c0:c1] * c.out_scale).astype(np.int8)
        assert c.expected.dtype == np.int8
        assert c.expected.tobytes() == want.tobytes()
        c.write_back(rebuilt, c.expected)
    assert rebuilt.tobytes() == rs.tobytes()


class TestElementwiseEquivalence:
    @given(
        st.sampled_from([Opcode.ADD, Opcode.SUB, Opcode.MUL]),
        dims, dims, quant_modes, styles, seeds,
    )
    @examples(60)
    def test_pairwise(self, op, rows, cols, quant, style, seed):
        rng = np.random.default_rng(seed)
        a = data(rng, (rows, cols), style)
        b = data(rng, (rows, cols), "normal")
        assert_equivalent(lambda: make_request(op, a, b, quant=quant))

    @given(
        st.sampled_from([Opcode.RELU, Opcode.TANH]),
        dims, dims, quant_modes, styles, seeds,
    )
    @examples(40)
    def test_unary(self, op, rows, cols, quant, style, seed):
        rng = np.random.default_rng(seed)
        a = data(rng, (rows, cols), style)
        assert_equivalent(lambda: make_request(op, a, quant=quant))

    @given(
        st.sampled_from([Opcode.MEAN, Opcode.MAX]),
        dims, dims, quant_modes, styles, seeds,
    )
    @examples(40)
    def test_reductions(self, op, rows, cols, quant, style, seed):
        rng = np.random.default_rng(seed)
        a = data(rng, (rows, cols), style)
        assert_equivalent(lambda: make_request(op, a, quant=quant))

    @given(
        st.sampled_from([Opcode.ADD, Opcode.MUL, Opcode.TANH, Opcode.RELU]),
        dims, dims, quant_modes, styles, seeds,
        st.sampled_from(["transposed", "strided", "broadcast"]),
    )
    @examples(30)
    def test_elementwise_any_layout(self, op, rows, cols, quant, style, seed, layout):
        # Banded lowering reads operands in their own layout: a view
        # lowers exactly like its contiguous copy, on both paths.
        rng = np.random.default_rng(seed)
        a = laid_out(data(rng, (rows, cols), style), layout, rng)
        b = laid_out(data(rng, (rows, cols), "normal"), layout, rng)
        operands = (a, b) if op.is_pairwise else (a,)
        assert_equivalent(lambda: make_request(op, *operands, quant=quant))
        assert_same_as_contiguous(op, operands, quant=quant)

    def test_max_on_all_negative_ragged_matrix(self):
        # Zero padding of ragged tiles must not leak into the maximum.
        a = -np.random.default_rng(0).uniform(1.0, 7.0, (130, 67))
        assert_equivalent(lambda: make_request(Opcode.MAX, a))


class TestMatrixEquivalence:
    @given(dims, dims, quant_modes, styles, seeds)
    @examples(30)
    def test_matvec(self, m, n, quant, style, seed):
        rng = np.random.default_rng(seed)
        mat = data(rng, (m, n), style)
        vec = data(rng, (m,), "normal")
        assert_equivalent(
            lambda: make_request(
                Opcode.FULLY_CONNECTED, vec, mat, quant=quant, model_name="w"
            )
        )

    @pytest.mark.parametrize("quant", [QuantMode.SCALE, QuantMode.GLOBAL])
    def test_matvec_spanning_several_tile_batches(self, quant):
        # 5 x 6 = 30 weight tiles: more than one batched matmul's worth.
        rng = np.random.default_rng(12)
        mat, vec = rng.normal(size=(600, 700)), rng.normal(size=600)
        assert 30 > functional._FC_TILES_PER_MATMUL
        assert_equivalent(
            lambda: make_request(Opcode.FULLY_CONNECTED, vec, mat, quant=quant, model_name="w")
        )

    @given(
        st.integers(1, 96), st.integers(1, 96), st.integers(1, 96),
        quant_modes, styles, seeds,
    )
    @examples(25)
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
    @examples(25)
    def test_gemm_conv2d(self, m, n, k, quant, style, seed):
        rng = np.random.default_rng(seed)
        a = data(rng, (m, n), style)
        b = data(rng, (n, k), "normal")
        assert_equivalent(
            lambda: make_request(Opcode.CONV2D, a, b, quant=quant, gemm=True)
        )

    @given(
        st.integers(1, 96), st.integers(1, 96), st.integers(1, 96),
        quant_modes, styles, seeds, st.sampled_from(["transposed", "strided"]),
    )
    @examples(25)
    def test_gemm_conv2d_any_layout(self, m, n, k, quant, style, seed, layout):
        # conv2D-GEMM reads both operands in place (x.T, strided views).
        rng = np.random.default_rng(seed)
        a = laid_out(data(rng, (m, n), style), layout, rng)
        b = laid_out(data(rng, (n, k), "normal"), layout, rng)
        assert_equivalent(
            lambda: make_request(Opcode.CONV2D, a, b, quant=quant, gemm=True)
        )
        assert_same_as_contiguous(Opcode.CONV2D, (a, b), quant=quant, gemm=True)

    def test_gemm_conv2d_spanning_several_row_blocks(self):
        # Tall enough to stream in >= 3 row blocks, wide enough for two
        # f32 slabs; each block's rows must equal the whole product's.
        rng = np.random.default_rng(8)
        a = rng.normal(size=(1100, 2800)).T  # x.T, as backprop's dW1
        b = rng.normal(size=(1100, 300))
        tz = Tensorizer()
        _, rows_per_chunk, _ = tz._gemm_conv2d_geometry(make_request(Opcode.CONV2D, a, b), *a.shape)
        block_rows = tensorizer_module._gemm_block_rows(1100, 300, rows_per_chunk, 2800)
        assert -(-2800 // block_rows) >= 3
        assert_equivalent(lambda: make_request(Opcode.CONV2D, a, b, gemm=True))

    def test_gemm_coalesced_blocks_crossing_members(self, monkeypatch):
        # A small block budget makes row blocks straddle member
        # boundaries; every member must still lower as it does alone.
        rng = np.random.default_rng(9)
        b = rng.normal(size=(129, 65))
        requests = [
            make_request(Opcode.CONV2D, rng.normal(size=(64, 129)), b, gemm=True)
            for _ in range(3)
        ]
        solo = [Tensorizer(options=TensorizerOptions(integrity="abft")).lower(r) for r in requests]
        monkeypatch.setattr(tensorizer_module, "_GEMM_BLOCK_BYTES", 64 * 1024)
        assert tensorizer_module._gemm_block_rows(129, 65, 2, 192) % 64 != 0
        group = Tensorizer(options=TensorizerOptions(integrity="abft")).lower_gemm_coalesced(requests)
        for alone, member in zip(solo, group):
            assert member.result.tobytes() == alone.result.tobytes()
            assert member.saturated == alone.saturated
            assert [i.label for i in member.instrs] == [i.label for i in alone.instrs]
            for want, got in zip(alone.integrity.checks.values(), member.integrity.checks.values()):
                assert (got.label, got.out_scale) == (want.label, want.out_scale)
                assert got.expected.tobytes() == want.expected.tobytes()

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
    @examples(30)
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
        oracle = ReferenceTensorizer()
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
    @examples(40)
    def test_stack_tiles_layout(self, rows, cols, tile, seed):
        a = np.random.default_rng(seed).normal(size=(rows, cols))
        stacked, tiles = stack_tiles(a, tile)
        assert len(tiles) == stacked.shape[0]
        for i, t in enumerate(tiles):
            h, w = t.shape()
            assert stacked[i, :h, :w].tobytes() == a[t.rows, t.cols].tobytes()
            assert not stacked[i, h:, :].any() and not stacked[i, :, w:].any()

    @given(dims, dims, seeds)
    @examples(40)
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
    @examples(40)
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
        stacked, tiles = stack_tiles(a, 64)
        fill_padding(stacked, a.shape, 64, -128)
        for i, t in enumerate(tiles):
            h, w = t.shape()
            assert (stacked[i, :h, :w] == 1.0).all()
        assert (stacked[-1, 6:, :] == -128).all()
