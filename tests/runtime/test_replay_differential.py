"""The executor's timeline replay equals the DES reference bit for bit.

Random batches run twice, on two fresh platforms: once through
:class:`~repro.runtime.executor.Executor` and once through the generator
processes of :mod:`repro.conformance.des`.  Everything the model
observes must agree exactly: the timeline, the trace records in order,
device counters, residency LRU order, ``dma.bytes_moved`` and the
platform clock.

``REPLAY_DIFF_EXAMPLES`` sets the example count (CI runs ~1000 with a
fixed ``--hypothesis-seed``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import all_applications
from repro.conformance.des import des_run
from repro.config import SystemConfig
from repro.edgetpu.isa import Opcode
from repro.host.platform import Platform
from repro.runtime.api import OpenCtpu
from repro.runtime.executor import Executor
from repro.runtime.opqueue import LoweredInstr, LoweredOperation, OperationRequest
from repro.runtime.scheduler import SchedulePolicy

EXAMPLES = int(os.environ.get("REPLAY_DIFF_EXAMPLES", "60"))

MB = 1 << 20
#: Each example draws its durations and sizes from one of these pools,
#: so that activities end together and many events share one instant:
#: the order of events within an instant is what the replay must keep.
SECONDS = [(1e-4,), (1e-4, 2e-4), (0.0, 1e-4), (2e-4, 5e-4), (0.0,)]
BYTES = [(4096,), (4096, MB), (1, 65536), (0, 4096), (MB, 3 * MB), (0,)]


@st.composite
def instrs(draw, task_id: int, seconds, sizes):
    return LoweredInstr(
        opcode=draw(st.sampled_from([Opcode.FULLY_CONNECTED, Opcode.ADD, Opcode.CONV2D])),
        task_id=task_id,
        group_key=draw(st.sampled_from(["", "", "g1", "g2"])),
        cache_key=draw(st.sampled_from(["", "c1", "c2", "c3"])),
        data_bytes=draw(sizes),
        model_bytes=draw(sizes),
        model_build_seconds=draw(seconds),
        exec_seconds=draw(seconds),
        out_bytes=draw(sizes),
        label=draw(st.sampled_from(["", "a", "b"])),
        model_cache_key=draw(st.sampled_from(["", "", "m1", "m2"])),
        count=draw(st.integers(1, 2)),
    )


@st.composite
def operations(draw, seconds, sizes):
    task_id = draw(st.integers(0, 5))
    request = OperationRequest(
        task_id=task_id,
        opcode=Opcode.ADD,
        inputs=(np.zeros((1, 1)),),
        depends_on=tuple(draw(st.lists(st.integers(0, 5), max_size=2))),
    )
    device_instrs = st.lists(instrs(task_id, seconds, sizes), min_size=1, max_size=6)
    body = [] if draw(st.integers(0, 4)) == 0 else draw(device_instrs)  # [] is host-only
    return LoweredOperation(request, body, np.zeros(1), cpu_seconds=draw(seconds))


@st.composite
def scenarios(draw):
    config = SystemConfig().with_tpus(draw(st.integers(1, 8)))
    config = config.with_interconnect(draw(st.sampled_from(["pcie", "dual", "usb"])))
    policy = SchedulePolicy(locality=draw(st.booleans()), pipelining=draw(st.booleans()))
    seconds = st.sampled_from(draw(st.sampled_from(SECONDS)))
    sizes = st.sampled_from(draw(st.sampled_from(BYTES)))
    batch = st.lists(operations(seconds, sizes), min_size=4, max_size=12)
    syncs = draw(st.lists(batch, min_size=1, max_size=2))
    return config, policy, syncs


def observed(platform: Platform) -> dict:
    """Everything a replay may change on a platform."""
    return {
        "records": list(platform.tracer),
        "devices": [
            (d.instructions_executed, d.busy_seconds, d.memory.snapshot(),
             d.memory.hits, d.memory.misses, d.memory.evictions)
            for d in platform.devices
        ],
        "bytes_moved": list(platform.bytes_moved.items()),
        "now": platform.now,
    }


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenarios())
def test_replay_matches_des_reference(scenario):
    config, policy, syncs = scenario
    replay, reference = Platform(config), Platform(config)
    executor = Executor(replay, policy)
    for ops in syncs:
        assert executor.run(ops) == des_run(reference, ops, policy)
    assert observed(replay) == observed(reference)


def lockstep_op(task_id, depends_on, cpu_seconds, *instrs):
    """An operation from (group, cache, data, model, build, exec, out, model-cache) rows."""
    request = OperationRequest(task_id, Opcode.ADD, (np.zeros((1, 1)),), depends_on=depends_on)
    body = [
        LoweredInstr(Opcode.ADD, task_id, g, c, d, m, b, e, o, model_cache_key=mk)
        for g, c, d, m, b, e, o, mk in instrs
    ]
    return LoweredOperation(request, body, np.zeros(1), cpu_seconds=cpu_seconds)


#: Small batches in which two activities meet at one instant.  Each one
#: fails if one particular wait of the DES (named by the key) is
#: replayed with a hop more or fewer; random batches rarely line up so.
#: Values: (interconnect, TPUs, locality, pipelining, operations).
LOCKSTEP = {
    "out-transfer-start": ("pcie", 5, False, False, [
        lockstep_op(2, (), 0.0,
                    ("", "c1", 0, 0, 0.0, 2e-4, 65536, "m1"),
                    ("", "", 0, 65536, 0.0, 2e-4, 0, "")),
        lockstep_op(2, (2,), 2e-4,
                    ("g1", "c1", 65536, 0, 2e-4, 2e-4, 65536, "m1"),
                    ("", "", 0, 65536, 2e-4, 2e-4, 65536, ""),
                    ("", "", 0, 65536, 2e-4, 2e-4, 65536, "")),
        lockstep_op(1, (1,), 2e-4, ("g1", "", 65536, 0, 2e-4, 2e-4, 65536, "")),
    ]),
    "transfer-landing": ("dual", 2, False, False, [
        lockstep_op(1, (), 0.0,
                    ("g1", "c1", 4096, 0, 0.0, 1e-4, 0, ""),
                    ("g1", "", 0, 0, 1e-4, 1e-4, 0, "m1"),
                    ("g1", "", 0, 0, 1e-4, 1e-4, 4096, "")),
        lockstep_op(2, (2,), 1e-4, ("g1", "", 4096, 0, 0.0, 1e-4, 4096, "")),
    ]),
    "stage-1-join": ("pcie", 5, False, False, [
        lockstep_op(2, (0,), 0.0, ("g1", "c1", 4096, 0, 0.0, 2e-4, 0, "")),
        lockstep_op(1, (), 2e-4,
                    ("g1", "c1", 0, 0, 0.0, 2e-4, 4096, "m1"),
                    ("", "c1", 0, 4096, 2e-4, 2e-4, 4096, "")),
        lockstep_op(2, (), 2e-4, ("", "c1", 0, 0, 2e-4, 2e-4, 0, "m1")),
    ]),
    "group-admission": ("usb", 3, False, False, [
        lockstep_op(2, (1,), 0.0, ("g1", "c1", 0, 0, 1e-4, 1e-4, 0, "")),
        lockstep_op(0, (), 0.0, ("", "", 65536, 65536, 1e-4, 1e-4, 65536, "")),
        lockstep_op(1, (2,), 1e-4, ("", "c1", 0, 65536, 1e-4, 1e-4, 0, "m1")),
        lockstep_op(2, (), 1e-4, ("g1", "c1", 0, 0, 0.0, 1e-4, 65536, "")),
    ]),
    "link-grant": ("dual", 4, True, False, [
        lockstep_op(0, (0,), 0.0, ("g1", "", 4096, 4096, 1e-4, 1e-4, 4096, "m1")),
        lockstep_op(2, (0,), 0.0, ("", "", 4096, 0, 0.0, 1e-4, 4096, "m1")),
        lockstep_op(1, (), 0.0,
                    ("", "c1", 0, 4096, 1e-4, 1e-4, 4096, ""),
                    ("", "c1", 4096, 4096, 1e-4, 1e-4, 4096, "")),
    ]),
}


@pytest.mark.parametrize("case", sorted(LOCKSTEP))
def test_replay_matches_des_reference_in_lockstep(case):
    interconnect, tpus, locality, pipelining, ops = LOCKSTEP[case]
    config = SystemConfig().with_tpus(tpus).with_interconnect(interconnect)
    policy = SchedulePolicy(locality=locality, pipelining=pipelining)
    replay, reference = Platform(config), Platform(config)
    assert Executor(replay, policy).run(ops) == des_run(reference, ops, policy)
    assert observed(replay) == observed(reference)


@pytest.mark.parametrize(
    "name, params",
    [("gemm", {"n": 256}), ("pagerank", {"n": 512, "iterations": 2}), ("lud", {"n": 256})],
)
def test_apps_replay_matches_des_reference(name, params):
    app = all_applications()[name]
    data = app.generate(seed=3, **params)
    ctx_replay = OpenCtpu(Platform.with_tpus(8))
    ctx_reference = OpenCtpu(Platform.with_tpus(8))
    ctx_reference.executor.run = lambda ops: des_run(ctx_reference.platform, ops)
    a = app.run_gptpu(data, ctx_replay)
    b = app.run_gptpu(data, ctx_reference)
    assert (a.wall_seconds, a.energy.active_joules) == (b.wall_seconds, b.energy.active_joules)
    assert observed(ctx_replay.platform) == observed(ctx_reference.platform)

