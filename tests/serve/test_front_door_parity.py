"""One front door: both servers tell the same story for the same traffic.

A seeded virtual-clock scenario walks every front-door transition — an
admission-queue expiry, an overload shed, an SLO preemption, a
deadline that passes while the request executes and a request whose
lowering fails — through the in-process ``TpuServer`` (``workers=0``)
and the multi-process ``MpTpuServer`` (``workers=1``).  Each must emit
the same per-request observer events (with the same device indices),
the same front-door and terminal tracer instants, settle every future
the same way, and count the same terminal outcomes.
"""

import asyncio
from collections import defaultdict

import numpy as np
import pytest

from repro.edgetpu.isa import Opcode
from repro.errors import LoadShed, ServingError
from repro.host.platform import Platform
from repro.mp import MpTpuServer
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import Tensorizer
from repro.serve import ServeConfig, SloPolicy, TpuServer
from repro.telemetry import SpanTracer

#: Every request is one 64x64 float64 ADD: one dispatch group of about
#: 0.24 ms modeled service, so ``time_scale`` makes it hold the single
#: TPU for about 0.24 s of real time.
SIZE = 64
TIME_SCALE = 1000.0
#: The MP request ring holds exactly one request's two operands, so the
#: second shipment parks — the only work an MP preemption may take.
RING_BYTES = 2 * SIZE * SIZE * 8 + 64

#: The shared story, by serve id: 1 expires while queued, 2 times out
#: at delivery, 3 is preempted and then delivered, 4 is shed, 5 (gold)
#: is delivered, 6 (a CROP without its ``crop_box``) fails to lower.
#: Each event carries the TPU it happened on, or -1.
EVENTS = {
    1: [("timeout", -1)],
    2: [("dispatch", 0), ("timeout", 0)],
    3: [("preempt", -1), ("dispatch", 0), ("deliver", 0)],
    5: [("dispatch", 0), ("deliver", 0)],
    6: [("give-up", -1)],
}
OUTCOMES = {
    1: "RequestTimeout",
    2: "RequestTimeout",
    3: "delivered",
    4: "LoadShed",
    5: "delivered",
    6: "ServingError",
}
#: Front-door instants (``serve``) in order.
INSTANTS = [
    ("submit", 1), ("submit", 2), ("submit", 3),
    ("shed", 4), ("submit", 5), ("preempt", 3), ("submit", 6),
]
#: Terminal instants (``serve.lifecycle``), one per settled request.
TERMINAL = {
    1: ("timeout", "router"),
    2: ("timeout", "tpu0"),
    3: ("deliver", "tpu0"),
    5: ("deliver", "tpu0"),
    6: ("give-up", "router"),
}
COUNTERS = dict(
    submitted=6, rejected=0, shed=1, timeouts=2, completed=2, failed=1,
    preemptions=1,
)


class VirtualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _add(rng, tenant):
    return OperationRequest(
        task_id=0,
        opcode=Opcode.ADD,
        inputs=(rng.normal(size=(SIZE, SIZE)), rng.normal(size=(SIZE, SIZE))),
        quant=QuantMode.SCALE,
        tenant=tenant,
    )


async def _until(condition):
    while not condition():
        await asyncio.sleep(0.001)


def _outcome(future):
    exc = future.exception()
    return "delivered" if exc is None else type(exc).__name__


async def _scenario(workers):
    rng = np.random.default_rng(15)
    clock = VirtualClock()
    tracer = SpanTracer(enabled=True)
    # miss_alpha=1: one admission expiry in a turn of three requests
    # (miss rate 1/3 >= 0.25) engages shedding for the next submit, and
    # the next calm turn releases it.
    config = ServeConfig(
        time_scale=TIME_SCALE,
        slo=SloPolicy(tenant_tiers={"g": "gold"}, miss_alpha=1.0),
    )
    platform = Platform.with_tpus(1)
    if workers:
        server = MpTpuServer(
            platform, config, clock=clock, tracer=tracer,
            workers=workers, ring_bytes=RING_BYTES,
        )
    else:
        server = TpuServer(platform, config, clock=clock, tracer=tracer)
    events = defaultdict(list)
    futures = {}
    requests = {sid: _add(rng, "g" if sid == 5 else "b") for sid in range(1, 6)}
    crop = OperationRequest(
        task_id=0,
        opcode=Opcode.CROP,
        inputs=(rng.normal(size=(SIZE, SIZE)),),
        quant=QuantMode.SCALE,
        tenant="g",
    )
    async with server:
        server.pool.observer = lambda e, sid, dev: events[sid].append((e, dev))
        futures[1] = server.submit_nowait(requests[1], deadline_seconds=-1.0)
        futures[2] = server.submit_nowait(requests[2], deadline_seconds=5.0)
        futures[3] = server.submit_nowait(requests[3], deadline_seconds=100.0)
        # Request 2 holds the TPU; 3 waits behind it (queued on the pool
        # in-process, parked on the full ring in MP).
        await asyncio.wait_for(_until(lambda: ("dispatch", 0) in events[2]), 30.0)
        with pytest.raises(LoadShed):
            server.submit_nowait(requests[4], deadline_seconds=100.0)
        futures[4] = None
        futures[5] = server.submit_nowait(requests[5], deadline_seconds=100.0)
        clock.now = 10.0  # request 2's deadline passes while it runs
        await asyncio.gather(*(f for f in futures.values() if f), return_exceptions=True)
        futures[6] = server.submit_nowait(crop, deadline_seconds=100.0)
        with pytest.raises(ServingError):
            await futures[6]
        await server.drain()
    outcomes = {
        sid: "LoadShed" if fut is None else _outcome(fut)
        for sid, fut in futures.items()
    }
    instants = [
        (span.name, span.args["serve_id"])
        for span in tracer
        if span.phase == "i" and span.cat == "serve"
    ]
    terminal = [
        (span.args["serve_id"], (span.name, span.track))
        for span in tracer
        if span.phase == "i" and span.cat == "serve.lifecycle"
        and span.name in ("deliver", "timeout", "give-up")
    ]
    counters = {key: getattr(server.metrics, key) for key in COUNTERS}
    reference = Tensorizer(platform.config.edgetpu, cpu=platform.cpu)
    mismatched = [
        sid
        for sid in (3, 5)
        if futures[sid].result().tobytes()
        != reference.lower(requests[sid]).result.tobytes()
    ]
    return dict(events), outcomes, instants, terminal, counters, mismatched


@pytest.mark.parametrize("workers", [0, 1])
def test_front_door_transitions_match_across_servers(workers):
    events, outcomes, instants, terminal, counters, mismatched = asyncio.run(
        _scenario(workers)
    )
    assert events == EVENTS
    assert outcomes == OUTCOMES
    assert instants == INSTANTS
    assert len(terminal) == len(TERMINAL)  # one terminal instant each
    assert dict(terminal) == TERMINAL
    assert counters == COUNTERS
    assert mismatched == []  # delivered bytes equal the solo lowering


def _make(workers, platform, config, clock, ring_bytes=RING_BYTES):
    if workers:
        return MpTpuServer(
            platform, config, clock=clock, workers=workers, ring_bytes=ring_bytes
        )
    return TpuServer(platform, config, clock=clock)


async def _stop_with_work_queued(workers):
    rng = np.random.default_rng(16)
    server = _make(
        workers, Platform.with_tpus(1), ServeConfig(time_scale=TIME_SCALE), VirtualClock()
    )
    events = defaultdict(list)
    server.pool.observer = lambda e, sid, dev: events[sid].append(e)
    await server.start()
    # The first request holds the only TPU; the other five wait in the
    # pool queue (in-process) or park behind the one-request ring (MP).
    futures = [server.submit_nowait(_add(rng, "t")) for _ in range(6)]
    await asyncio.wait_for(_until(lambda: "dispatch" in events[1]), 30.0)
    await server.stop()
    settled = [f.done() for f in futures]
    errors = [
        type(f.exception()).__name__ for f in futures if f.done() and f.exception()
    ]
    return settled, errors, dict(events), server.snapshot()["outcomes"]


@pytest.mark.parametrize("workers", [0, 1])
def test_stop_settles_every_request_once(workers):
    settled, errors, events, outcomes = asyncio.run(_stop_with_work_queued(workers))
    assert all(settled)
    assert outcomes["lost"] == 0
    assert outcomes["completed"] + outcomes["failed"] == 6
    assert errors == ["ServingError"] * outcomes["failed"]
    gave_up = [sid for sid, names in events.items() if "give-up" in names]
    assert len(gave_up) == outcomes["failed"]
    assert all(events[sid].count("give-up") == 1 for sid in gave_up)


def _gemm(rng, b, tenant):
    return OperationRequest(
        task_id=0,
        opcode=Opcode.CONV2D,
        inputs=(rng.normal(size=(64, b.shape[0])), b),
        quant=QuantMode.SCALE,
        attrs={"gemm": True},
        tenant=tenant,
    )


async def _snapshot_after_traffic(workers):
    rng = np.random.default_rng(17)
    b = rng.normal(size=(48, 40))
    config = ServeConfig(
        time_scale=0.0,
        integrity="abft",
        slo=SloPolicy(tenant_tiers={"g": "gold"}),
    )
    server = _make(
        workers, Platform.with_tpus(2), config, VirtualClock(),
        ring_bytes=1 << 20,
    )
    async with server:
        # One drain coalesces the burst; the solo requests then bind
        # the cached plan.
        await asyncio.gather(*(
            server.submit_nowait(_gemm(rng, b, tenant))
            for tenant in ("g", "b", "b", "g")
        ))
        for tenant in ("b", "g"):
            await server.submit(_gemm(rng, b, tenant))
        await server.drain()
        live = server.snapshot()
    return live, server.snapshot()


def _shape(value):
    """Nested key set and leaf value types of a snapshot."""
    if isinstance(value, dict):
        return {key: _shape(item) for key, item in value.items() if key != "workers"}
    return type(value).__name__


def test_snapshot_schema_and_counters_match_across_servers():
    local, _ = asyncio.run(_snapshot_after_traffic(0))
    live, final = asyncio.run(_snapshot_after_traffic(1))
    for snap in (live, final):
        assert _shape(snap) == _shape(local)
        for block in ("outcomes", "coalescing", "plan_cache"):
            assert snap[block] == local[block], block
        sharding = {k: v for k, v in snap["sharding"].items() if k != "profile"}
        assert sharding == {
            k: v for k, v in local["sharding"].items() if k != "profile"
        }
    assert local["outcomes"]["completed"] == 6
    assert local["coalescing"]["requests_coalesced"] == 4
    assert local["plan_cache"]["hits"] > 0
