"""PlanCache: bounded LRU semantics, counters, and key sensitivity."""

import dataclasses

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.edgetpu.isa import Opcode
from repro.plan import CompiledPlan, PlanCache, plan_signature
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import TensorizerOptions


def _plan(tag: str) -> CompiledPlan:
    return CompiledPlan(
        signature=tag, kind="generic", opname="ADD"
    )


class TestLru:
    def test_positive_bound_required(self):
        with pytest.raises(ValueError):
            PlanCache(0)
        with pytest.raises(ValueError):
            PlanCache(-3)

    def test_eviction_is_lru_not_wholesale(self):
        cache = PlanCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.put(key, _plan(key))
        cache.put("d", _plan("d"))
        assert len(cache) == 3
        assert "a" not in cache
        assert all(k in cache for k in ("b", "c", "d"))
        assert cache.evictions == 1

    def test_hit_refreshes_recency(self):
        cache = PlanCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.put(key, _plan(key))
        cache.get("a")  # touch the oldest
        cache.put("d", _plan("d"))
        assert "a" in cache
        assert "b" not in cache

    def test_peek_does_not_touch_recency_or_counters(self):
        cache = PlanCache(max_entries=2)
        cache.put("a", _plan("a"))
        cache.put("b", _plan("b"))
        assert cache.peek("a") is not None
        assert cache.hits == 0 and cache.misses == 0
        cache.put("c", _plan("c"))  # "a" was NOT refreshed: it goes
        assert "a" not in cache

    def test_plans_in_lru_to_mru_order(self):
        cache = PlanCache()
        for key in ("a", "b", "c"):
            cache.put(key, _plan(key))
        cache.get("a")
        assert [p.signature for p in cache.plans()] == ["b", "c", "a"]

    def test_clear_keeps_lifetime_counters(self):
        cache = PlanCache()
        cache.put("a", _plan("a"))
        cache.get("a")
        cache.get("missing")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1


class TestCounters:
    def test_counter_snapshot_keys(self):
        cache = PlanCache()
        cache.put("a", _plan("a"))
        cache.get("a")
        cache.get("b")
        cache.note_bind(3)
        snap = cache.counters()
        assert snap == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "stores": 1,
            "binds": 3,
            "entries": 1,
            "hit_rate": 0.5,
        }

    def test_hit_rate_before_any_lookup_is_zero(self):
        assert PlanCache().hit_rate == 0.0


def _request(**over) -> OperationRequest:
    base = dict(
        task_id=0,
        opcode=Opcode.CONV2D,
        inputs=(
            np.ones((8, 8), dtype=np.float32),
            np.ones((8, 8), dtype=np.float32),
        ),
        quant=QuantMode.SCALE,
        attrs={"gemm": True},
    )
    base.update(over)
    return OperationRequest(**base)


class TestSignature:
    """The signature must cover every lowering-relevant input."""

    def setup_method(self):
        self.options = TensorizerOptions()
        self.config = SystemConfig().edgetpu

    def _sig(self, request, options=None, config=None):
        return plan_signature(
            request, options or self.options, config or self.config
        )

    def test_identical_requests_share_a_signature(self):
        assert self._sig(_request()) == self._sig(_request(task_id=7))

    def test_data_values_do_not_enter_the_signature(self):
        noisy = _request()
        noisy.inputs = (
            np.full((8, 8), 3.25, dtype=np.float32),
            np.full((8, 8), -1.5, dtype=np.float32),
        )
        assert self._sig(_request()) == self._sig(noisy)

    def test_shape_dtype_quant_attrs_all_distinguish(self):
        base = self._sig(_request())
        assert base != self._sig(
            _request(inputs=(
                np.ones((8, 9), dtype=np.float32),
                np.ones((9, 8), dtype=np.float32),
            ))
        )
        assert base != self._sig(
            _request(inputs=(
                np.ones((8, 8), dtype=np.float64),
                np.ones((8, 8), dtype=np.float64),
            ))
        )
        assert base != self._sig(_request(quant=QuantMode.GLOBAL))
        assert base != self._sig(_request(attrs={"gemm": True, "gemm_chunks": 2}))
        assert base != self._sig(_request(opcode=Opcode.ADD, attrs={}))

    def test_options_and_config_digests_distinguish(self):
        base = self._sig(_request())
        assert base != self._sig(
            _request(),
            options=dataclasses.replace(self.options, integrity="abft"),
        )
        assert base != self._sig(
            _request(),
            config=dataclasses.replace(self.config, matrix_unit_dim=64),
        )

    def test_per_channel_scale_attrs_distinguish(self):
        # conv2D_nn carries per-output-channel quant params; two layers
        # with different calibration vectors must never share a plan.
        a = self._sig(_request(
            opcode=Opcode.CONV2D_NN,
            attrs={"channel_scales": tuple(float(i + 1) for i in range(64))},
        ))
        b = self._sig(_request(
            opcode=Opcode.CONV2D_NN,
            attrs={"channel_scales": tuple(float(i + 2) for i in range(64))},
        ))
        assert a != b

    def test_wide_array_attrs_do_not_collapse_via_repr_elision(self):
        # NumPy's repr elides long arrays with "..."; the signature must
        # digest full content so near-identical wide vectors stay apart.
        wide = np.linspace(0.5, 4.0, 4096)
        tweaked = wide.copy()
        tweaked[2048] += 1e-6
        a = self._sig(_request(attrs={"channel_scales": wide}))
        b = self._sig(_request(attrs={"channel_scales": tweaked}))
        assert repr(wide) == repr(tweaked)  # repr alone cannot tell them apart
        assert a != b

    def test_list_and_tuple_attrs_share_a_token(self):
        a = self._sig(_request(attrs={"channel_scales": [1.0, 2.0, 3.0]}))
        b = self._sig(_request(attrs={"channel_scales": (1.0, 2.0, 3.0)}))
        assert a == b
