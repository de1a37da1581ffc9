"""Plan capture/replay: bit-identity, amortized builds, scratch LRU.

The contract under test: attaching a :class:`~repro.plan.PlanCache` to a
Tensorizer is a pure performance transform.  Every replayed lowering
must produce byte-identical results and an identical instruction stream
(modulo the amortized model-build cost), under SCALE and GLOBAL
quantization, with integrity checking on, through the coalesced path,
and when capture/replay/fresh lowerings interleave arbitrarily.
"""

import numpy as np
import pytest

from repro.edgetpu.isa import Opcode
from repro.conformance.reference import ReferenceTensorizer
from repro.errors import QuantizationError, TensorizerError
from repro.plan import PlanCache
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import (
    _GEMM_SCRATCH_SLOTS,
    Tensorizer,
    TensorizerOptions,
)


def _gemm(a, b, quant=QuantMode.SCALE, task_id=0, **attrs):
    return OperationRequest(
        task_id=task_id,
        opcode=Opcode.CONV2D,
        inputs=(np.asarray(a), np.asarray(b)),
        quant=quant,
        attrs={"gemm": True, **attrs},
    )


def _elementwise(opcode, a, b=None, task_id=0):
    inputs = (np.asarray(a),) if b is None else (np.asarray(a), np.asarray(b))
    return OperationRequest(
        task_id=task_id, opcode=opcode, inputs=inputs, quant=QuantMode.SCALE
    )


def _planned_tz(integrity="off"):
    cache = PlanCache()
    tz = Tensorizer(
        options=TensorizerOptions(integrity=integrity),
        plan_cache=cache,
    )
    return tz, cache


def _fresh_tz(integrity="off"):
    return Tensorizer(
        options=TensorizerOptions(integrity=integrity)
    )


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestGemmReplay:
    @pytest.mark.parametrize("quant", [QuantMode.SCALE, QuantMode.GLOBAL])
    def test_replay_bit_identical(self, quant):
        rng = _rng(1)
        b = rng.normal(size=(40, 36))
        tz, cache = _planned_tz()
        reference = _fresh_tz()
        for i in range(3):
            a = rng.normal(size=(48, 40)) * (i + 1)
            warm = tz.lower(_gemm(a, b, quant=quant))
            fresh = reference.lower(_gemm(a, b, quant=quant))
            assert np.array_equal(warm.result, fresh.result)
        assert cache.hits == 2 and cache.misses == 1
        assert tz.stats.plan_captures == 1 and tz.stats.plan_replays == 2

    def test_replay_bit_identical_with_saturating_data(self):
        rng = _rng(2)
        a = rng.normal(size=(32, 24)) * 1e6  # saturates int8 quantization
        b = rng.normal(size=(24, 16)) * 1e-6
        tz, _ = _planned_tz()
        tz.lower(_gemm(a, b))
        warm = tz.lower(_gemm(a, b))
        fresh = _fresh_tz().lower(_gemm(a, b))
        assert np.array_equal(warm.result, fresh.result)

    def test_replay_bit_identical_with_abft(self):
        rng = _rng(3)
        a = rng.normal(size=(40, 32))
        b = rng.normal(size=(32, 24))
        tz, _ = _planned_tz(integrity="abft")
        cold = tz.lower(_gemm(a, b))
        warm = tz.lower(_gemm(a, b))
        fresh = _fresh_tz(integrity="abft").lower(_gemm(a, b))
        assert np.array_equal(warm.result, fresh.result)
        # The checksum plan survives replay — same layout, real checks.
        assert cold.integrity is not None and warm.integrity is not None
        assert set(warm.integrity.checks) == set(cold.integrity.checks)

    def test_instr_stream_identical_modulo_model_build(self):
        rng = _rng(4)
        a = rng.normal(size=(48, 40))
        b = rng.normal(size=(40, 36))
        tz, _ = _planned_tz()
        cold = tz.lower(_gemm(a, b))
        warm = tz.lower(_gemm(a, b))
        # Source keys embed the per-Tensorizer operation sequence, so
        # lower twice in the reference too: its second (still plan-free)
        # lowering is the exact fresh twin of the warm replay.
        reference = _fresh_tz()
        reference.lower(_gemm(a, b))
        fresh = reference.lower(_gemm(a, b))
        assert len(warm.instrs) == len(fresh.instrs) == len(cold.instrs)
        for w, f in zip(warm.instrs, fresh.instrs):
            assert w.group_key == f.group_key
            assert w.cache_key == f.cache_key
            assert w.model_cache_key == f.model_cache_key
            assert w.label == f.label
            assert w.count == f.count
            assert (w.data_bytes, w.model_bytes, w.out_bytes) == (
                f.data_bytes,
                f.model_bytes,
                f.out_bytes,
            )
            assert w.exec_seconds == f.exec_seconds
            # The §6.2.3 model build happened once, at capture.
            assert f.model_build_seconds > 0.0
            assert w.model_build_seconds == 0.0

    def test_model_builds_amortized_across_replays(self):
        rng = _rng(5)
        a = rng.normal(size=(48, 40))
        b = rng.normal(size=(40, 36))
        tz, _ = _planned_tz()
        tz.lower(_gemm(a, b))
        built = tz.stats.models_built
        for _ in range(3):
            tz.lower(_gemm(a, b))
        assert tz.stats.models_built == built  # replays build nothing

    def test_changed_model_operand_requantizes_but_stays_exact(self):
        # Same signature (same shapes), different B values: the cached
        # model block must NOT be reused — the replay requantizes B and
        # still matches fresh lowering bit-for-bit.
        rng = _rng(6)
        a = rng.normal(size=(32, 24))
        b1 = rng.normal(size=(24, 16))
        b2 = rng.normal(size=(24, 16)) * 2.0
        tz, cache = _planned_tz()
        tz.lower(_gemm(a, b1))
        warm = tz.lower(_gemm(a, b2))
        fresh = _fresh_tz().lower(_gemm(a, b2))
        assert cache.hits == 1
        assert np.array_equal(warm.result, fresh.result)

    def test_model_operand_edited_in_place_requantizes(self):
        # A writable float64 B reaches the plan as the very same object
        # on both calls, but its values changed in between: the warm
        # bind must quantize the edited values, not replay the block
        # captured before the edit.
        rng = _rng(7)
        a = rng.normal(size=(64, 64))
        b = rng.normal(size=(64, 64))
        tz, cache = _planned_tz()
        tz.lower(_gemm(a, b))
        b += rng.normal(size=b.shape)
        warm = tz.lower(_gemm(a, b))
        fresh = _fresh_tz().lower(_gemm(a, b.copy()))
        assert cache.hits == 1
        assert warm.result.tobytes() == fresh.result.tobytes()

    def test_frozen_model_operand_is_reused_by_identity(self, monkeypatch):
        # A read-only B that owns its data cannot change: the plan holds
        # that very array and a warm bind reuses its quantization with
        # no element compare (np.array_equal is spied on) and no new
        # model block.
        rng = _rng(8)
        b = rng.normal(size=(40, 36))
        b.flags.writeable = False
        tz, cache = _planned_tz()
        cold = tz.lower(_gemm(rng.normal(size=(48, 40)), b))
        (plan,) = cache.plans()
        block = plan.model
        assert block.b_held is b
        calls = []
        real = np.array_equal
        monkeypatch.setattr(
            np, "array_equal", lambda *args, **kw: calls.append(args) or real(*args, **kw)
        )
        a = rng.normal(size=(48, 40))
        warm = tz.lower(_gemm(a, b))
        assert calls == []
        assert plan.model is block
        # Reuse skips B's reshape: only A's is charged.
        assert warm.cpu_seconds < cold.cpu_seconds
        fresh = _fresh_tz().lower(_gemm(a, b))
        assert warm.result.tobytes() == fresh.result.tobytes()


class TestGenericReplay:
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: _elementwise(
                Opcode.ADD, rng.normal(size=(33, 17)), rng.normal(size=(33, 17))
            ),
            lambda rng: _elementwise(Opcode.TANH, rng.normal(size=(21, 19))),
            lambda rng: OperationRequest(
                task_id=0,
                opcode=Opcode.MEAN,
                inputs=(np.abs(_rng(8).normal(size=(17, 13))) + 0.5,),
                quant=QuantMode.SCALE,
            ),
        ],
    )
    def test_generic_ops_replay_bit_identical(self, make):
        rng = _rng(7)
        request = make(rng)
        tz, cache = _planned_tz()
        cold = tz.lower(request)
        warm = tz.lower(make(_rng(7)))
        fresh = _fresh_tz().lower(make(_rng(7)))
        assert np.array_equal(warm.result, fresh.result)
        assert np.array_equal(cold.result, fresh.result)
        assert cache.hits == 1 and cache.misses == 1
        # Replayed instructions carry no model-build cost; the capture
        # charged exactly what the plan-free lowering charges.
        assert all(i.model_build_seconds == 0.0 for i in warm.instrs)
        assert sum(i.model_build_seconds for i in cold.instrs) == sum(
            i.model_build_seconds for i in fresh.instrs
        )


class TestCoalescedReplay:
    def test_coalesced_group_replays_bit_identically(self):
        rng = _rng(9)
        b = rng.normal(size=(24, 24)).astype(np.float32)
        tz, cache = _planned_tz()
        reference = _fresh_tz()

        def group(seed):
            g = _rng(seed)
            return [
                _gemm(g.normal(size=(24, 24)).astype(np.float32), b, task_id=i)
                for i in range(3)
            ]

        cold = tz.lower_gemm_coalesced(group(1))
        warm = tz.lower_gemm_coalesced(group(2))
        assert cache.misses == 1 and cache.hits == 1
        assert cache.binds == 3  # one bind per member request
        assert tz.stats.plan_replays == 3
        for lowered, request in zip(warm, group(2)):
            solo = reference.lower(request)
            assert np.array_equal(lowered.result, solo.result)
        for lowered, request in zip(cold, group(1)):
            solo = reference.lower(request)
            assert np.array_equal(lowered.result, solo.result)

    def test_failed_warm_group_binds_nothing(self):
        # A warm group that raises was never bound: the replay counters
        # must stay where they were, exactly as for a failed solo lower.
        rng = _rng(13)
        b = rng.normal(size=(24, 24))
        tz, cache = _planned_tz()

        def group():
            return [_gemm(rng.normal(size=(24, 24)), b, task_id=i) for i in range(3)]

        tz.lower_gemm_coalesced(group())  # capture
        (plan,) = cache.plans()
        bad = group()
        bad[0].inputs[0][0, 0] = np.nan
        with pytest.raises(QuantizationError):
            tz.lower_gemm_coalesced(bad)
        assert cache.binds == 0 and tz.stats.plan_replays == 0
        assert plan.replays == 0
        with pytest.raises(QuantizationError):
            tz.lower(bad[0])
        assert cache.binds == 0 and tz.stats.plan_replays == 0
        # The group still replays cleanly afterwards.
        tz.lower_gemm_coalesced(group())
        assert cache.binds == 3 and tz.stats.plan_replays == 3


class TestInterleaving:
    """`_global_params` across replays.

    `_global_params` is a per-operation memo reset at the top of every
    lowering, so interleaving captures, replays, and plan-free fresh
    lowerings in one Tensorizer must never leak state between them.
    """

    def test_interleaved_capture_replay_fresh_stay_exact(self):
        rng = _rng(10)
        b = rng.normal(size=(24, 20))
        sequence = [
            _gemm(rng.normal(size=(32, 24)), b, quant=QuantMode.GLOBAL),
            _gemm(rng.normal(size=(32, 24)) * 3.0, b),  # SCALE capture
            _elementwise(
                Opcode.ADD, rng.normal(size=(19, 23)), rng.normal(size=(19, 23))
            ),
            _gemm(rng.normal(size=(32, 24)) * 0.1, b, quant=QuantMode.GLOBAL),
            _elementwise(
                Opcode.ADD,
                rng.normal(size=(19, 23)) * 2.0,
                rng.normal(size=(19, 23)),
            ),
            _gemm(rng.normal(size=(32, 24)) * 7.0, b),  # SCALE replay
        ]
        tz, cache = _planned_tz()
        reference = _fresh_tz()
        for request in sequence:
            mine = tz.lower(request)
            # _global_params is strictly per-operation: nothing survives
            # into the next lowering to poison SCALE requests.
            assert tz._global_params is None or request.quant is QuantMode.GLOBAL
            theirs = reference.lower(
                OperationRequest(
                    task_id=request.task_id,
                    opcode=request.opcode,
                    inputs=request.inputs,
                    quant=request.quant,
                    attrs=dict(request.attrs),
                )
            )
            assert np.array_equal(mine.result, theirs.result)
        assert cache.hits > 0 and cache.misses > 0


class TestScratchLru:
    """Satellite 1: the GEMM scratch is a keyed LRU, not a single slot."""

    def test_alternating_geometries_stay_resident(self):
        rng = _rng(11)
        a1, b1 = rng.normal(size=(32, 24)), rng.normal(size=(24, 16))
        a2, b2 = rng.normal(size=(48, 40)), rng.normal(size=(40, 36))
        tz = _fresh_tz()
        tz.lower(_gemm(a1, b1))
        assert len(tz._gemm_scratch) == 1
        (key1,) = tz._gemm_scratch
        buffers1 = tz._gemm_scratch[key1]
        tz.lower(_gemm(a2, b2))
        assert len(tz._gemm_scratch) == 2
        # Alternate between the two shapes: no thrash, buffers reused.
        for _ in range(3):
            tz.lower(_gemm(a1, b1))
            tz.lower(_gemm(a2, b2))
        assert len(tz._gemm_scratch) == 2
        assert tz._gemm_scratch[key1] is buffers1

    def test_scratch_is_bounded_with_lru_eviction(self):
        rng = _rng(12)
        tz = _fresh_tz()
        shapes = [(16 + 8 * i, 16) for i in range(_GEMM_SCRATCH_SLOTS + 2)]
        for m, k in shapes:
            tz.lower(_gemm(rng.normal(size=(m, 20)), rng.normal(size=(20, k))))
        assert len(tz._gemm_scratch) == _GEMM_SCRATCH_SLOTS
        # The oldest geometry was evicted; re-lowering it re-allocates
        # (correctness unaffected).
        m0, k0 = shapes[0]
        lowered = tz.lower(
            _gemm(rng.normal(size=(m0, 20)), rng.normal(size=(20, k0)))
        )
        assert lowered.result.shape == (m0, k0)
        assert len(tz._gemm_scratch) == _GEMM_SCRATCH_SLOTS


class TestGuards:
    def test_plan_cache_requires_vectorized_lowering(self):
        # Only the batched production rules plan; the reference stays
        # plan-free.
        with pytest.raises(TensorizerError):
            ReferenceTensorizer(plan_cache=PlanCache())
