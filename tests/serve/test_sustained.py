"""Sustained open-loop serving: EDF, shedding, preemption, determinism."""

import asyncio

import numpy as np
import pytest

from repro.edgetpu.isa import Opcode
from repro.errors import LoadShed, QueueFull
from repro.host.platform import Platform
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.serve import (
    ServeConfig,
    SloPolicy,
    SustainedSpec,
    TpuServer,
    run_sustained,
)
from repro.serve.admission import AdmissionController
from repro.serve.dispatcher import DevicePool, DispatchWork
from repro.serve.metrics import ServingMetrics
from repro.serve.request import ServeRequest


def _sreq(serve_id, tenant="t", deadline=None, priority=0, outstanding=0):
    request = OperationRequest(
        task_id=serve_id,
        opcode=Opcode.ADD,
        inputs=(np.zeros((2, 2)),),
        quant=QuantMode.SCALE,
        tenant=tenant,
    )
    loop = asyncio.new_event_loop()
    try:
        future = loop.create_future()
    finally:
        loop.close()
    return ServeRequest(
        serve_id=serve_id,
        tenant=tenant,
        request=request,
        future=future,
        submitted=0.0,
        deadline=deadline,
        priority=priority,
        outstanding=outstanding,
    )


class TestEdfAdmission:
    def test_drains_earliest_deadline_first(self):
        ctl = AdmissionController(capacity=8, scheduling="edf")
        ctl.offer(_sreq(1, deadline=9.0))
        ctl.offer(_sreq(2, deadline=1.0))
        ctl.offer(_sreq(3, deadline=5.0))
        assert [s.serve_id for s in ctl.drain(10)] == [2, 3, 1]

    def test_no_deadline_sorts_last_priority_breaks_ties(self):
        ctl = AdmissionController(capacity=8, scheduling="edf")
        ctl.offer(_sreq(1, priority=2))  # no deadline
        ctl.offer(_sreq(2, deadline=4.0, priority=1))
        ctl.offer(_sreq(3, deadline=4.0, priority=0))
        ctl.offer(_sreq(4, priority=0))  # no deadline, higher tier
        assert [s.serve_id for s in ctl.drain(10)] == [3, 2, 4, 1]

    def test_requeue_bypasses_capacity(self):
        ctl = AdmissionController(capacity=1, scheduling="edf")
        ctl.offer(_sreq(1, deadline=2.0))
        with pytest.raises(QueueFull):
            ctl.offer(_sreq(2, deadline=1.0))
        ctl.requeue(_sreq(3, deadline=1.0))  # preempted: must re-enter
        assert ctl.depth == 2
        assert [s.serve_id for s in ctl.drain(10)] == [3, 1]

    def test_expire_rebuilds_heap(self):
        ctl = AdmissionController(capacity=8, scheduling="edf")
        ctl.offer(_sreq(1, deadline=1.0))
        ctl.offer(_sreq(2, deadline=9.0))
        ctl.offer(_sreq(3, deadline=2.0))
        expired = ctl.expire(now=5.0)
        assert sorted(s.serve_id for s in expired) == [1, 3]
        assert ctl.depth == 1
        assert [s.serve_id for s in ctl.drain(10)] == [2]


class TestPoolPreemption:
    def test_preempts_only_fully_queued_lower_priority(self):
        async def scenario():
            platform = Platform.with_tpus(2)
            metrics = ServingMetrics()
            pool = DevicePool(platform, metrics, time_scale=0.0)
            pool.start()
            events = []
            pool.observer = lambda e, sid, dev: events.append((e, sid))
            gold = _sreq(1, priority=0, outstanding=1)
            bronze = _sreq(2, priority=2, outstanding=1)
            started = _sreq(3, priority=2, outstanding=2)
            started.started = 1  # one group already executing
            pool.submit(DispatchWork(group=None, sreq=gold))
            pool.submit(DispatchWork(group=None, sreq=bronze))
            pool.submit(DispatchWork(group=None, sreq=started))
            # No awaits since submit: everything still sits in the inbox.
            owners = pool.preempt(below_priority=0)
            assert [s.serve_id for s in owners] == [2]
            # The server's front door reports the preemption when it
            # requeues the owner (tests/serve/test_front_door_parity.py);
            # the pool only detaches the work.
            assert events == []
            assert pool.in_flight == 2  # gold + started stay
            for sreq in (gold, bronze, started):
                sreq.future.cancel()
            await pool.stop()

        asyncio.run(scenario())


class TestSustainedRuns:
    def test_bit_for_bit_reproducible(self):
        spec = SustainedSpec(requests=600, rate=60.0, seed=11)
        a = run_sustained(spec)
        b = run_sustained(spec)
        assert a.digest == b.digest
        assert a.outcomes == b.outcomes
        assert a.violations == [] and b.violations == []

    def test_different_seed_different_digest(self):
        a = run_sustained(SustainedSpec(requests=300, rate=60.0, seed=1))
        b = run_sustained(SustainedSpec(requests=300, rate=60.0, seed=2))
        assert a.digest != b.digest

    def test_overload_sheds_lowest_tier_first(self):
        """4x overload: bronze sheds en masse, gold never sheds, and the
        run stays invariant-clean (exactly-once, zero lost)."""
        result = run_sustained(
            SustainedSpec(requests=2500, rate=400.0, seed=7, burst=32, ticks=1)
        )
        assert result.violations == []
        tiers = result.tier_table
        assert tiers["bronze"]["shed"] > 0
        assert tiers["gold"]["shed"] == 0
        # Silver sheds only if bronze did (ladder order).
        if tiers["silver"]["shed"]:
            assert tiers["bronze"]["shed"] > 0
        assert result.outcomes.get("S", 0) == sum(
            t["shed"] for t in tiers.values()
        )

    def test_churn_keeps_invariants(self):
        """Fail-stop churn mid-run: zero lost, exactly-once, ordered
        shedding all hold while the breaker/requeue machinery runs."""
        result = run_sustained(
            SustainedSpec(
                requests=1200,
                rate=80.0,
                seed=7,
                burst=16,
                fail_after_instructions=2000,
            )
        )
        assert result.violations == []
        assert result.snapshot["outcomes"]["lost"] == 0

    def test_snapshot_has_p999_and_tiers(self):
        result = run_sustained(SustainedSpec(requests=400, rate=40.0, seed=3))
        latency = result.snapshot["latency"]
        assert "p999_seconds" in latency
        assert latency["p999_seconds"] >= latency["p99_seconds"]
        assert set(result.tier_table) == {"gold", "silver", "bronze"}
        for row in result.tier_table.values():
            assert row["joules_per_request"] is None or row["joules_per_request"] > 0

    def test_energy_table_prices_busy_time(self):
        result = run_sustained(SustainedSpec(requests=400, rate=40.0, seed=3))
        assert result.energy["active_joules"] > 0
        assert result.energy["idle_joules"] > 0
        # Active joules = busy seconds x 1.2 W across tiers.
        busy = sum(t["busy_seconds"] for t in result.tier_table.values())
        assert result.energy["active_joules"] == pytest.approx(busy * 1.2)


class TestShedAccounting:
    """LoadShed is typed, counted apart from QueueFull, and per-tier."""

    def _config(self):
        return ServeConfig(
            max_queue_depth=4,
            time_scale=0.0,
            slo=SloPolicy(
                tenant_tiers={"vip": "gold"},
                high_watermark=0.5,
                low_watermark=0.25,
            ),
        )

    def _request(self, tenant):
        return OperationRequest(
            task_id=0,
            opcode=Opcode.CONV2D,
            inputs=(np.ones((8, 8), np.float32), np.ones((8, 8), np.float32)),
            quant=QuantMode.SCALE,
            attrs={"gemm": True, "gemm_chunks": 1},
            tenant=tenant,
        )

    def test_load_shed_is_a_queue_full_subtype_with_tier(self):
        assert issubclass(LoadShed, QueueFull)
        exc = LoadShed("shed", tier="bronze")
        assert exc.tier == "bronze"

    def test_shed_counted_apart_from_rejected(self):
        async def scenario():
            server = TpuServer(Platform.with_tpus(2), self._config())
            async with server:
                # Force the governor to the deepest shed level.
                server.overload.observe(depth=4, misses=0, drained=0)
                assert server.overload.level >= 1
                with pytest.raises(LoadShed):
                    server.submit_nowait(self._request("anyone"))
                # Gold passes the governor (unsheddable).
                fut = server.submit_nowait(self._request("vip"))
                await fut
                snap = server.snapshot()
                assert snap["outcomes"]["shed"] == 1
                assert snap["outcomes"]["rejected"] == 0
                assert snap["tiers"]["bronze"]["shed"] == 1
                assert snap["tiers"]["gold"]["shed"] == 0
                counters = server.counter_registry().snapshot()["serving"]
                assert counters["shed"] == 1
                assert counters["shed.bronze"] == 1
                assert counters["completed.gold"] == 1

        asyncio.run(scenario())
