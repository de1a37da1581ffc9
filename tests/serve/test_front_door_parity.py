"""One front door: both servers tell the same story for the same traffic.

A seeded virtual-clock scenario walks every front-door transition — an
admission-queue expiry, an overload shed, an SLO preemption and a
deadline that passes while the request executes — through the
in-process ``TpuServer`` (``workers=0``) and the multi-process
``MpTpuServer`` (``workers=1``).  Each must emit the same per-request
observer events and front-door tracer instants, settle every future
the same way, and count the same terminal outcomes.
"""

import asyncio
from collections import defaultdict

import numpy as np
import pytest

from repro.edgetpu.isa import Opcode
from repro.errors import LoadShed
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
#: is delivered.
EVENTS = {
    1: ["timeout"],
    2: ["dispatch", "timeout"],
    3: ["preempt", "dispatch", "deliver"],
    5: ["dispatch", "deliver"],
}
OUTCOMES = {
    1: "RequestTimeout",
    2: "RequestTimeout",
    3: "delivered",
    4: "LoadShed",
    5: "delivered",
}
INSTANTS = [
    ("submit", 1), ("submit", 2), ("submit", 3),
    ("timeout", 1), ("shed", 4), ("submit", 5), ("preempt", 3),
]
COUNTERS = dict(
    submitted=5, rejected=0, shed=1, timeouts=2, completed=2, failed=0,
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
    async with server:
        server.pool.observer = lambda e, sid, dev: events[sid].append(e)
        futures[1] = server.submit_nowait(requests[1], deadline_seconds=-1.0)
        futures[2] = server.submit_nowait(requests[2], deadline_seconds=5.0)
        futures[3] = server.submit_nowait(requests[3], deadline_seconds=100.0)
        # Request 2 holds the TPU; 3 waits behind it (queued on the pool
        # in-process, parked on the full ring in MP).
        await asyncio.wait_for(_until(lambda: "dispatch" in events[2]), 30.0)
        with pytest.raises(LoadShed):
            server.submit_nowait(requests[4], deadline_seconds=100.0)
        futures[4] = None
        futures[5] = server.submit_nowait(requests[5], deadline_seconds=100.0)
        clock.now = 10.0  # request 2's deadline passes while it runs
        await asyncio.gather(*(f for f in futures.values() if f), return_exceptions=True)
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
    counters = {key: getattr(server.metrics, key) for key in COUNTERS}
    reference = Tensorizer(platform.config.edgetpu, cpu=platform.cpu)
    mismatched = [
        sid
        for sid in (3, 5)
        if futures[sid].result().tobytes()
        != reference.lower(requests[sid]).result.tobytes()
    ]
    return dict(events), outcomes, instants, counters, mismatched


@pytest.mark.parametrize("workers", [0, 1])
def test_front_door_transitions_match_across_servers(workers):
    events, outcomes, instants, counters, mismatched = asyncio.run(
        _scenario(workers)
    )
    assert events == EVENTS
    assert outcomes == OUTCOMES
    assert instants == INSTANTS
    assert counters == COUNTERS
    assert mismatched == []  # delivered bytes equal the solo lowering
