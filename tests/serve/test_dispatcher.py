"""Fault-tolerant dispatch: circuit breaker, retries, exactly-once."""

import asyncio
import time

import numpy as np
import pytest

from repro.edgetpu.isa import Opcode
from repro.errors import DeviceFailure, RequestTimeout
from repro.host.platform import Platform
from repro.runtime.opqueue import LoweredInstr, LoweredOperation, OperationRequest, QuantMode
from repro.runtime.scheduler import build_dispatch_groups
from repro.serve.dispatcher import CircuitBreaker, DevicePool, DispatchWork
from repro.serve.metrics import ServingMetrics
from repro.serve.request import ServeRequest
from repro.serve.server import FrontDoor


def _pool(platform, metrics, **kwargs):
    """A pool whose terminal outcomes settle through a bare front door."""
    door = FrontDoor(None, kwargs.get("clock", time.monotonic), None, metrics)
    door.pool = DevicePool(platform, metrics, **kwargs)
    door.pool.settle = door._settle
    return door.pool


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_opens_at_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, cooldown_seconds=1.0, clock=clock)
        breaker.record_failure()
        assert not breaker.is_open
        breaker.record_failure()
        assert breaker.is_open
        assert breaker.opened == 1

    def test_half_open_after_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_seconds=1.0, clock=clock)
        breaker.record_failure()
        assert breaker.is_open
        clock.now = 1.5
        assert not breaker.is_open  # half-open: one probe allowed
        breaker.record_failure()  # probe fails: reopen immediately
        assert breaker.is_open
        assert breaker.opened == 2

    def test_success_closes_fully(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, cooldown_seconds=1.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        assert not breaker.is_open
        assert breaker.consecutive_failures == 0

    def test_reopens_at_is_none_unless_open(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_seconds=1.0, clock=clock)
        assert breaker.reopens_at is None  # never opened: no sentinel
        breaker.record_failure()
        assert breaker.reopens_at == pytest.approx(1.0)
        clock.now = 1.5  # cooldown elapsed: half-open counts as closed
        assert breaker.reopens_at is None
        breaker.record_failure()
        assert breaker.reopens_at == pytest.approx(2.5)
        breaker.record_success()
        assert breaker.reopens_at is None

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0, cooldown_seconds=1.0)
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=1, cooldown_seconds=-1.0)


def _work(task_id=1):
    """One single-group request over a tiny lowered stream."""
    instrs = [
        LoweredInstr(
            opcode=Opcode.ADD,
            task_id=task_id,
            group_key="",
            cache_key="",
            data_bytes=256,
            model_bytes=0,
            model_build_seconds=0.0,
            exec_seconds=1e-6,
            out_bytes=64,
            label="t",
            count=1,
        )
    ]
    request = OperationRequest(
        task_id=task_id,
        opcode=Opcode.ADD,
        inputs=(np.zeros((2, 2)),),
        quant=QuantMode.SCALE,
        input_name=f"w{task_id}",
    )
    op = LoweredOperation(request, instrs, np.full((2, 2), 7.0), cpu_seconds=0.0)
    groups = build_dispatch_groups(op.instrs)
    sreq = ServeRequest(
        serve_id=task_id,
        tenant="t",
        request=request,
        future=asyncio.get_running_loop().create_future(),
        submitted=0.0,
        op=op,
        outstanding=len(groups),
    )
    return [DispatchWork(group=g, sreq=sreq) for g in groups], sreq


async def _run_pool(platform, works, **kwargs):
    metrics = ServingMetrics()
    pool = _pool(platform, metrics, time_scale=0.0, **kwargs)
    pool.start()
    try:
        for work in works:
            pool.submit(work)
        await asyncio.wait_for(pool.drain(), timeout=10.0)
    finally:
        await pool.stop()
    return metrics


class TestDevicePool:
    def test_healthy_pool_delivers(self):
        async def main():
            platform = Platform.with_tpus(2)
            works, sreq = _work()
            metrics = await _run_pool(platform, works)
            assert await sreq.future is not None
            return metrics, sreq

        metrics, sreq = asyncio.run(main())
        assert metrics.completed == 1
        assert sreq.future.done() and not sreq.failed

    def test_failed_device_retries_elsewhere(self):
        async def main():
            platform = Platform.with_tpus(2)
            platform.devices[0].inject_fault(after_instructions=0)  # dead on arrival
            works, sreq = _work()
            metrics = await _run_pool(platform, works)
            result = await sreq.future
            return metrics, result

        metrics, result = asyncio.run(main())
        assert np.array_equal(result, np.full((2, 2), 7.0))
        assert metrics.completed == 1
        assert metrics.device_failures >= 1
        assert metrics.retries >= 1
        assert metrics.lost == -1  # submitted counter lives in the server

    def test_retries_are_bounded(self):
        async def main():
            platform = Platform.with_tpus(1)
            platform.devices[0].inject_fault(after_instructions=0)
            works, sreq = _work()
            metrics = await _run_pool(platform, works, max_retries=2)
            with pytest.raises(DeviceFailure):
                await sreq.future
            return metrics

        metrics = asyncio.run(main())
        assert metrics.failed == 1
        # 1 initial attempt + 2 retries, every one a device failure.
        assert metrics.device_failures == 3
        assert metrics.retries == 2

    def test_transient_fault_recovers_on_same_device(self):
        async def main():
            platform = Platform.with_tpus(1)
            platform.devices[0].inject_fault(after_instructions=0, failures=1)
            works, sreq = _work()
            metrics = await _run_pool(platform, works)
            return metrics, await sreq.future

        metrics, result = asyncio.run(main())
        # Single-device pool: the retry must fall back onto the failed
        # device once the transient fault clears.
        assert metrics.completed == 1
        assert metrics.retries == 1
        assert np.array_equal(result, np.full((2, 2), 7.0))

    def test_deadline_expiring_mid_retry_times_out_exactly_once(self):
        # A transient fault knocks the group off the device; while it
        # sits requeued the request's deadline elapses.  The retry
        # pickup must surface RequestTimeout — not deliver a stale
        # result, not hang, not settle the future twice.
        async def main():
            platform = Platform.with_tpus(1)
            platform.devices[0].inject_fault(after_instructions=0, failures=1)
            works, sreq = _work()
            metrics = ServingMetrics()
            pool = _pool(platform, metrics, time_scale=0.0)
            events = []

            def observer(event, serve_id, device):
                events.append(event)
                if event == "failure":
                    # Deadline elapses between the failure and the retry.
                    sreq.deadline = 0.0

            pool.observer = observer
            pool.start()
            try:
                for work in works:
                    pool.submit(work)
                await asyncio.wait_for(pool.drain(), timeout=10.0)
            finally:
                await pool.stop()
            with pytest.raises(RequestTimeout):
                await sreq.future
            return metrics, events, sreq

        metrics, events, sreq = asyncio.run(main())
        assert metrics.timeouts == 1
        assert metrics.completed == 0
        assert metrics.retries == 1
        assert events.count("timeout") == 1
        assert "deliver" not in events
        assert sreq.failed

    def test_observer_sees_delivery_lifecycle(self):
        # The campaign hook must report dispatch and deliver exactly
        # once each for an uneventful request.
        async def main():
            platform = Platform.with_tpus(2)
            works, sreq = _work()
            metrics = ServingMetrics()
            pool = _pool(platform, metrics, time_scale=0.0)
            events = []
            pool.observer = lambda event, serve_id, device: events.append(
                (event, serve_id, device)
            )
            pool.start()
            try:
                for work in works:
                    pool.submit(work)
                await asyncio.wait_for(pool.drain(), timeout=10.0)
            finally:
                await pool.stop()
            await sreq.future
            return events, sreq

        events, sreq = asyncio.run(main())
        names = [event for event, _, _ in events]
        assert names.count("dispatch") == 1
        assert names.count("deliver") == 1
        assert all(serve_id == sreq.serve_id for _, serve_id, _ in events)
        assert all(device >= 0 for _, _, device in events)

    def test_breaker_quarantines_failing_device(self):
        async def main():
            platform = Platform.with_tpus(2)
            platform.devices[1].inject_fault(after_instructions=0)
            all_works = []
            sreqs = []
            for i in range(6):
                works, sreq = _work(task_id=i + 1)
                all_works.extend(works)
                sreqs.append(sreq)
            metrics = await _run_pool(
                platform, all_works, breaker_threshold=1, breaker_cooldown=5.0
            )
            for sreq in sreqs:
                await sreq.future
            return metrics

        metrics = asyncio.run(main())
        assert metrics.completed == 6
        # After the first failure the breaker holds tpu1 open for 5 s —
        # far longer than the test — so it sees at most a couple of
        # probes rather than every request.
        assert metrics.failures_by_device["tpu1"] <= 2
        assert metrics.groups_by_device["tpu0"] == 6


class TestInjectableClock:
    """Every time read in the pool must route through the injected clock.

    Regression tests for the direct ``time.monotonic()`` calls the worker
    and router used to make, which made deadline and latency behaviour
    untestable (and wrong under any non-wall time base).
    """

    def test_latency_measured_on_injected_clock(self):
        async def main():
            clock = FakeClock()
            clock.now = 10.0
            platform = Platform.with_tpus(1)
            works, sreq = _work()
            sreq.submitted = 10.0
            metrics = ServingMetrics()
            pool = _pool(platform, metrics, time_scale=0.0, clock=clock)
            pool.start()
            try:
                clock.now = 13.5  # "time passes" only on the fake clock
                for work in works:
                    pool.submit(work)
                await asyncio.wait_for(pool.drain(), timeout=10.0)
            finally:
                await pool.stop()
            await sreq.future
            return metrics

        metrics = asyncio.run(main())
        assert metrics.completed == 1
        assert list(metrics.latencies.values()) == [pytest.approx(3.5)]

    def test_deadline_checks_read_injected_clock(self):
        # Fake time 0, deadline 100: live under the fake clock, long
        # expired under time.monotonic().  A lingering direct monotonic
        # read in the worker would wrongly time this request out.
        async def main():
            clock = FakeClock()
            platform = Platform.with_tpus(1)
            works, sreq = _work()
            sreq.deadline = 100.0
            metrics = ServingMetrics()
            pool = _pool(platform, metrics, time_scale=0.0, clock=clock)
            pool.start()
            try:
                for work in works:
                    pool.submit(work)
                await asyncio.wait_for(pool.drain(), timeout=10.0)
            finally:
                await pool.stop()
            return metrics, sreq

        metrics, sreq = asyncio.run(main())
        assert metrics.timeouts == 0
        assert metrics.completed == 1
        assert not sreq.failed

    def test_expired_deadline_on_injected_clock_times_out(self):
        async def main():
            clock = FakeClock()
            clock.now = 200.0
            platform = Platform.with_tpus(1)
            works, sreq = _work()
            sreq.deadline = 100.0  # already past on the fake clock
            metrics = ServingMetrics()
            pool = _pool(platform, metrics, time_scale=0.0, clock=clock)
            pool.start()
            try:
                for work in works:
                    pool.submit(work)
                await asyncio.wait_for(pool.drain(), timeout=10.0)
            finally:
                await pool.stop()
            with pytest.raises(RequestTimeout):
                await sreq.future
            return metrics

        metrics = asyncio.run(main())
        assert metrics.timeouts == 1
        assert metrics.completed == 0

    def test_breakers_share_the_pool_clock(self):
        async def main():
            clock = FakeClock()
            platform = Platform.with_tpus(2)
            pool = DevicePool(
                platform,
                ServingMetrics(),
                breaker_threshold=1,
                breaker_cooldown=3.0,
                clock=clock,
            )
            breaker = pool.breakers[0]
            breaker.record_failure()
            assert breaker.is_open
            clock.now = 2.9
            assert breaker.is_open
            clock.now = 3.1  # cooldown elapses on the fake clock only
            assert not breaker.is_open

        asyncio.run(main())
