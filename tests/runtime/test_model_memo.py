"""The named FullyConnected model memo in ``Tensorizer._model_tiles``.

A request carrying ``model_name`` reuses the previous quantization of
that name while the operand is unchanged (PageRank's adjacency across
power iterations).  A hit must be bit-identical to lowering on a fresh
Tensorizer and must charge the same modeled costs; any change to the
operand, the name or the shape must re-quantize.
"""

import numpy as np
import pytest

from repro.edgetpu.isa import Opcode
from repro.runtime import tensorizer as tensorizer_module
from repro.runtime.opqueue import QuantMode
from repro.runtime.tensorizer import Tensorizer
from tests.runtime.test_vectorized_equivalence import make_request


@pytest.fixture
def quantizations(monkeypatch):
    """Count the model-operand quantizations the Tensorizer performs."""
    calls = []
    real = tensorizer_module.quantize_tiles

    def counting(matrix, tile, scale=None):
        calls.append(matrix.shape)
        return real(matrix, tile, scale)

    monkeypatch.setattr(tensorizer_module, "quantize_tiles", counting)
    return calls


def _matvec(vec, mat, quant=QuantMode.SCALE, name="link"):
    attrs = {"model_name": name} if name else {}
    return make_request(Opcode.FULLY_CONNECTED, vec, mat, quant=quant, **attrs)


def _fresh(request):
    return Tensorizer().lower(request)


def _same(a, b):
    assert a.result.tobytes() == b.result.tobytes()
    assert a.instrs == b.instrs
    assert a.saturated == b.saturated


class TestModelMemo:
    @pytest.mark.parametrize("quant", [QuantMode.SCALE, QuantMode.GLOBAL])
    def test_hit_is_bit_identical_to_a_fresh_tensorizer(self, quant, quantizations):
        rng = np.random.default_rng(0)
        mat = rng.uniform(0.0, 1.0, (300, 257))
        tz = Tensorizer()
        for i in range(3):
            vec = rng.uniform(0.1, 2.0 + i, 300)  # GLOBAL: a new scale each call
            _same(tz.lower(_matvec(vec, mat, quant)), _fresh(_matvec(vec, mat, quant)))
        # One quantization for the memo's owner (plus one per fresh
        # Tensorizer) under SCALE; GLOBAL scales follow the vector.
        own = len(quantizations) - 3
        assert own == (1 if quant is QuantMode.SCALE else 3)

    def test_hit_charges_the_same_modeled_costs(self):
        rng = np.random.default_rng(1)
        mat, vec = rng.normal(size=(256, 256)), rng.normal(size=256)
        tz = Tensorizer()
        first = tz.lower(_matvec(vec, mat))
        built, seconds, tiles = (
            tz.stats.models_built, tz.stats.model_build_seconds, tz.stats.tiles_lowered
        )
        second = tz.lower(_matvec(vec, mat))
        assert tz.stats.models_built == 2 * built
        assert tz.stats.model_build_seconds == pytest.approx(2 * seconds)
        assert tz.stats.tiles_lowered == 2 * tiles
        assert second.instrs == first.instrs
        assert all(i.model_cache_key.startswith("link:") for i in second.instrs)

    def test_in_place_edit_misses(self, quantizations):
        rng = np.random.default_rng(2)
        mat, vec = rng.normal(size=(200, 150)), rng.normal(size=200)
        tz = Tensorizer()
        tz.lower(_matvec(vec, mat))
        mat[17, 33] += 1.0
        _same(tz.lower(_matvec(vec, mat)), _fresh(_matvec(vec, mat)))
        assert len(quantizations) == 3  # owner twice, fresh once

    def test_new_name_or_shape_misses(self, quantizations):
        rng = np.random.default_rng(3)
        mat, vec = rng.normal(size=(200, 150)), rng.normal(size=200)
        tz = Tensorizer()
        tz.lower(_matvec(vec, mat, name="a"))
        _same(tz.lower(_matvec(vec, mat, name="b")), _fresh(_matvec(vec, mat, name="b")))
        sub = mat[:, :140]
        _same(tz.lower(_matvec(vec, sub, name="b")), _fresh(_matvec(vec, sub, name="b")))
        assert len(quantizations) == 5  # owner three times, fresh twice

    def test_unnamed_operand_always_quantizes(self, quantizations):
        rng = np.random.default_rng(4)
        mat, vec = rng.normal(size=(130, 130)), rng.normal(size=130)
        tz = Tensorizer()
        for _ in range(3):
            tz.lower(_matvec(vec, mat, name=""))
        assert len(quantizations) == 3

    def test_fully_connected_gemm_shares_the_memo(self, quantizations):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(9, 200)), rng.normal(size=(200, 140))
        build = lambda: make_request(Opcode.FULLY_CONNECTED, a, b, model_name="w")  # noqa: E731
        tz = Tensorizer()
        tz.lower(build())
        _same(tz.lower(build()), _fresh(build()))
        assert len(quantizations) == 2  # owner once, fresh once

    def test_memoized_stack_is_read_only(self, monkeypatch):
        stacks = []
        real = Tensorizer._model_tiles

        def spy(self, request, matrix, tile):
            out = real(self, request, matrix, tile)
            stacks.append(out)
            return out

        monkeypatch.setattr(Tensorizer, "_model_tiles", spy)
        rng = np.random.default_rng(6)
        tz = Tensorizer()
        tz.lower(_matvec(rng.normal(size=130), rng.normal(size=(130, 130))))
        q, scales = stacks[0]
        assert not q.flags.writeable
        assert not scales.flags.writeable


@pytest.fixture
def comparisons(monkeypatch):
    """Count the memo's element-for-element operand comparisons."""
    calls = []
    real = np.array_equal

    def counting(a1, a2, *args, **kwargs):
        calls.append((a1.shape, a2.shape))
        return real(a1, a2, *args, **kwargs)

    monkeypatch.setattr(np, "array_equal", counting)
    return calls


class TestReadOnlyOperand:
    def test_identity_hit_makes_no_comparison_and_no_copy(self, quantizations, comparisons):
        rng = np.random.default_rng(7)
        mat, vec = rng.normal(size=(300, 257)), rng.normal(size=300)
        mat.flags.writeable = False
        tz = Tensorizer()
        for _ in range(3):
            _same(tz.lower(_matvec(vec, mat)), _fresh(_matvec(vec, mat)))
        assert comparisons == []
        assert tz._model_memo[1] is mat  # held, not copied
        assert len(quantizations) == 1 + 3  # owner once, fresh three times

    def test_read_only_view_over_a_writable_base_still_compares(self, quantizations, comparisons):
        rng = np.random.default_rng(8)
        base, vec = rng.normal(size=(200, 150)), rng.normal(size=200)
        view = base[:]
        view.flags.writeable = False
        tz = Tensorizer()
        tz.lower(_matvec(vec, view))
        assert tz._model_memo[1] is not view
        base[17, 33] += 1.0  # edits the view's data through its base
        _same(tz.lower(_matvec(vec, view)), _fresh(_matvec(vec, view)))
        assert len(comparisons) == 1
        assert len(quantizations) == 3  # owner twice, fresh once

    def test_pagerank_quantizes_its_adjacency_once_per_run(self, quantizations, comparisons):
        from repro.apps.pagerank import PageRankApp
        from repro.host.platform import Platform
        from repro.runtime.api import OpenCtpu

        app = PageRankApp()
        inputs = app.generate(seed=1, n=300, iterations=4)
        assert not inputs["link"].flags.writeable
        app.run_gptpu(inputs, OpenCtpu(Platform.with_tpus(2)))
        assert len(quantizations) == 1
        assert comparisons == []
