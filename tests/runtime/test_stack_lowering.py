"""Whole-stack lowerings: the batched stencil and POOL on a plane stack.

The batched stencil quantizes every halo patch of a conv2D stencil at
once; its per-tile body survives in the conformance reference
(:class:`repro.conformance.reference.ReferenceTensorizer`), and the two
must agree bit for bit — results, instruction streams and saturation
counts.  A ``(P, H, W)`` POOL must equal P one-plane POOLs: the same
results, and an instruction stream that is the per-plane streams
concatenated in plane order.
"""

import numpy as np
import pytest

from repro.conformance.reference import ReferenceTensorizer
from repro.edgetpu.isa import Opcode
from repro.errors import QuantizationError, TensorizerError
from repro.runtime import tensorizer as tensorizer_module
from repro.runtime.opqueue import QuantMode
from repro.runtime.tensorizer import Tensorizer
from tests.runtime.test_vectorized_equivalence import assert_equivalent, make_request

QUANTS = [QuantMode.SCALE, QuantMode.GLOBAL]


def tensorizer(vectorized: bool) -> Tensorizer:
    """The production Tensorizer, or the per-tile reference."""
    return Tensorizer() if vectorized else ReferenceTensorizer()


class TestStencilTwins:
    @pytest.mark.parametrize("quant", QUANTS)
    @pytest.mark.parametrize(
        "shape, k",
        [((300, 211), 3), ((514, 514), 3), ((300, 211), 1), ((514, 514), 5), ((65, 67), 5)],
    )
    def test_ragged_multi_tile_inputs(self, shape, k, quant):
        rng = np.random.default_rng(shape[0] + k)
        a = rng.normal(size=shape) * 3.0
        kern = rng.normal(size=(k, k))
        assert_equivalent(lambda: make_request(Opcode.CONV2D, a, kern, quant=quant))

    @pytest.mark.parametrize("quant", QUANTS)
    def test_all_zero_plane_and_zero_patches(self, quant):
        kern = np.full((3, 3), 1 / 9)
        zeros = np.zeros((260, 300))
        assert_equivalent(lambda: make_request(Opcode.CONV2D, zeros, kern, quant=quant))
        mixed = np.random.default_rng(1).normal(size=(260, 300))
        mixed[:130, :130] = 0.0  # the first patch is all zero
        assert_equivalent(lambda: make_request(Opcode.CONV2D, mixed, kern, quant=quant))

    def test_model_name_reaches_every_instruction(self):
        rng = np.random.default_rng(2)
        a, kern = rng.normal(size=(514, 514)), rng.normal(size=(3, 3))
        build = lambda: make_request(Opcode.CONV2D, a, kern, model_name="hotspot-k")  # noqa: E731
        assert_equivalent(build)
        lowered = Tensorizer().lower(build())
        assert len(lowered.instrs) == 25
        assert {i.model_cache_key for i in lowered.instrs} == {"hotspot-k"}

    def test_kernel_past_one_float32_slab(self):
        # 40x40 = 1600 taps of 127·127: the accumulator reaches 2.6e7,
        # past float32's exact-integer range, so the rule folds two
        # float32 slabs in float64.
        a = np.full((45, 50), -3.0)
        kern = np.full((40, 40), -1.0)
        assert_equivalent(lambda: make_request(Opcode.CONV2D, a, kern))

    def test_formula_scaling_rule(self):
        rng = np.random.default_rng(3)
        a, kern = rng.normal(size=(200, 300)), rng.normal(size=(3, 3))
        assert_equivalent(lambda: make_request(Opcode.CONV2D, a, kern), scaling_rule="formula")

    def test_batched_rule_counts_one_dispatch_and_no_memo_traffic(self, monkeypatch):
        rng = np.random.default_rng(4)
        a, kern = rng.normal(size=(300, 211)), rng.normal(size=(3, 3))
        tz = Tensorizer()
        calls = []
        real = tensorizer_module.params_for_range
        monkeypatch.setattr(
            tensorizer_module, "params_for_range", lambda m: calls.append(m) or real(m)
        )
        tz.lower(make_request(Opcode.CONV2D, a, kern))
        assert tz.stats.batched_dispatches == 1
        assert tz.stats.scalar_dispatches == 0
        assert tz.stats.tiles_lowered == 6
        # Only the operation-wide output and kernel params are derived
        # one range at a time; the six patch scales come in one batch.
        assert len(calls) == 2

    def test_nan_input_fails_alike(self):
        a = np.random.default_rng(5).normal(size=(300, 300))
        a[200, 250] = np.nan
        kern = np.full((3, 3), 1 / 9)
        for vectorized in (True, False):
            tz = tensorizer(vectorized)
            with pytest.raises(
                QuantizationError, match="^cannot derive quantization parameters from NaN range$"
            ):
                tz.lower(make_request(Opcode.CONV2D, a, kern))

    @pytest.mark.parametrize(
        "shape, kshape, message",
        [
            ((50, 50), (60, 3), r"^kernel \(60, 3\) larger than input \(50, 50\)$"),
            (
                (200, 200),
                (129, 129),
                r"^kernel \(129, 129\) too large for the 128x128 instruction tile$",
            ),
        ],
    )
    def test_oversized_kernel_fails_alike(self, shape, kshape, message):
        for vectorized in (True, False):
            tz = tensorizer(vectorized)
            with pytest.raises(TensorizerError, match=message):
                tz.lower(make_request(Opcode.CONV2D, np.ones(shape), np.ones(kshape)))


POOL_CASES = [
    # (stack shape, window, stride, kind)
    ((5, 28, 28), (2, 2), (2, 2), "max"),
    ((3, 67, 41), (3, 2), (2, 2), "avg"),
    ((4, 41, 67), (2, 3), (3, 2), "max"),
    # stride 1 over 300 rows: two row bands per plane
    ((3, 300, 97), (3, 2), (1, 1), "avg"),
    ((2, 300, 97), (2, 2), (1, 1), "max"),
]


class TestPoolStack:
    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("quant", QUANTS)
    @pytest.mark.parametrize("shape, window, stride, kind", POOL_CASES)
    def test_stack_equals_per_plane_loop(self, shape, window, stride, kind, quant, vectorized):
        rng = np.random.default_rng(shape[1])
        x = rng.normal(size=shape) * 4.0
        x[1] *= 0.01  # a plane with its own, much smaller range
        attrs = dict(window=window, stride=stride, kind=kind)
        stack = tensorizer(vectorized).lower(make_request(Opcode.POOL, x, quant=quant, **attrs))
        planes = [
            tensorizer(vectorized).lower(make_request(Opcode.POOL, p, quant=quant, **attrs))
            for p in x
        ]
        expect = np.stack([p.result for p in planes])
        assert stack.result.shape == expect.shape
        assert stack.result.tobytes() == expect.tobytes()
        assert stack.instrs == [i for p in planes for i in p.instrs]
        assert stack.saturated == sum(p.saturated for p in planes)

    @pytest.mark.parametrize("quant", QUANTS)
    @pytest.mark.parametrize("shape, window, stride, kind", POOL_CASES)
    def test_stack_scalar_twin_is_bit_identical(self, shape, window, stride, kind, quant):
        x = np.random.default_rng(7).normal(size=shape) * 4.0
        assert_equivalent(
            lambda: make_request(
                Opcode.POOL, x, quant=quant, window=window, stride=stride, kind=kind
            )
        )

    def test_multi_band_planes(self):
        x = np.random.default_rng(8).normal(size=(3, 300, 97))
        lowered = Tensorizer().lower(make_request(Opcode.POOL, x, window=(3, 2), stride=(1, 1)))
        assert [i.label for i in lowered.instrs] == ["pool@0", "pool@1"] * 3

    def test_two_d_input_keeps_its_shape(self):
        a = np.random.default_rng(9).normal(size=(28, 28))
        lowered = Tensorizer().lower(make_request(Opcode.POOL, a, window=(2, 2)))
        assert lowered.result.shape == (14, 14)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_empty_stack_rejected(self, vectorized):
        tz = tensorizer(vectorized)
        with pytest.raises(TensorizerError, match="at least one plane"):
            tz.lower(make_request(Opcode.POOL, np.zeros((0, 8, 8)), window=(2, 2)))

    def test_four_d_input_rejected(self):
        with pytest.raises(TensorizerError, match="plane stack"):
            Tensorizer().lower(make_request(Opcode.POOL, np.zeros((2, 2, 8, 8))))
