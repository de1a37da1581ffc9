"""DES reference for the runtime executor's timeline replay.

:class:`repro.runtime.executor.Executor` replays each ``sync()`` with a
generator-free event loop.  This module keeps the model it replays: one
generator process per worker, per instruction, per model build and per
DMA transfer (:class:`DMAEngine`), run on the
:mod:`repro.conformance.des_kernel` kernel.  It is slow (every wait is a
generator switch and every event a heap entry) but each stage of the
§6.2.3 pipeline reads as straight-line code, and the replay must agree
with it bit for bit: same trace records in the same order, same device
counters, residency LRU order, ``platform.bytes_moved`` and platform
clock (``platform.now``).  ``tests/runtime/test_replay_differential.py``
checks that on random batches.

A change to timing semantics changes both this reference and the
replay.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence

from repro.conformance.des_kernel import AllOf, Engine, Resource, SimEvent, Store
from repro.errors import SchedulerError
from repro.host.platform import Platform
from repro.interconnect.topology import Topology
from repro.runtime.executor import Timeline
from repro.runtime.opqueue import LoweredInstr, LoweredOperation
from repro.runtime.scheduler import SchedulePolicy, build_dispatch_groups
from repro.sim.trace import Tracer


class DMAEngine:
    """Schedules host↔device transfers over a shared topology.

    Each link segment is a capacity-1 resource: concurrent transfers to
    TPUs on one card contend for the card's upstream segment, while
    transfers to TPUs on different cards proceed fully in parallel — the
    behaviour the §3.1 machine was built to achieve.

    Transfers use store-and-forward modeling: each segment is held only
    for its own serialization time, so a fast shared upstream segment
    (4 lanes) is free again long before the slow leaf segment finishes.
    End-to-end latency is the sum of segment occupancies — dominated by
    the leaf's measured 6 ms/MB, matching the paper's observation that
    transfer time "simply correlates with data size" — while same-card
    TPUs still transfer nearly in parallel (the machine's design goal).

    Each finished transfer adds its bytes to *bytes_moved* (per TPU
    index) and one ``"transfer"`` record to *tracer*.
    """

    def __init__(
        self, engine: Engine, topology: Topology, tracer: Tracer, bytes_moved: Dict[int, int]
    ) -> None:
        self.engine = engine
        self.topology = topology
        self.tracer = tracer
        self.bytes_moved = bytes_moved
        self._resources: Dict[str, Resource] = {
            name: Resource(engine, capacity=1, name=name) for name in topology.links
        }

    def transfer(self, tpu_index: int, nbytes: int, label: str = "") -> Generator[SimEvent, object, float]:
        """Process: move *nbytes* between host and TPU *tpu_index*.

        Yields inside the DES; returns the completion time.  Zero-byte
        transfers complete immediately without touching any link.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        if nbytes == 0:
            return self.engine.now
        start_wait = self.engine.now
        start = None
        # Store-and-forward: traverse host-side first, holding each
        # segment only for its own occupancy.
        for link in self.topology.path_links(tpu_index):
            resource = self._resources[link.name]
            grant = yield resource.request()
            if start is None:
                start = self.engine.now
            try:
                yield self.engine.timeout(link.occupancy_seconds(nbytes))
            finally:
                resource.release(grant)
        self.bytes_moved[tpu_index] = self.bytes_moved.get(tpu_index, 0) + nbytes
        self.tracer.record(
            start,
            self.engine.now,
            kind="transfer",
            unit=f"tpu{tpu_index}",
            label=label or f"{nbytes}B",
            nbytes=nbytes,
            queued_seconds=start - start_wait,
        )
        return self.engine.now


def des_run(
    platform: Platform,
    ops: Sequence[LoweredOperation],
    policy: Optional[SchedulePolicy] = None,
) -> Timeline:
    """Execute *ops* on *platform* as generator processes on a DES
    engine that continues the platform clock and hands it back."""
    if not ops:
        raise SchedulerError("nothing to execute")
    policy = policy or SchedulePolicy()
    engine = Engine()
    engine.now = start = platform.now
    dma = DMAEngine(engine, platform.topology, platform.tracer, platform.bytes_moved)
    bytes_before = sum(platform.bytes_moved.values())

    device_ops = [op for op in ops if op.instrs]
    host_ops = [op for op in ops if not op.instrs]

    iq: List[LoweredInstr] = [instr for op in device_ops for instr in op.instrs]
    groups = build_dispatch_groups(iq, policy)
    queue = Store(engine, name="dispatch")
    for group in groups:
        queue.put(group)

    remaining = {id(op): len(op.instrs) for op in device_ops}
    op_of_instr = {id(instr): op for op in device_ops for instr in op.instrs}
    counters = {"instructions": 0}
    all_procs: List[SimEvent] = []

    # §5 dataflow ordering: an operation waits for the previous
    # operation of its task and the latest operation of every task in
    # depends_on.
    op_done = {id(op): engine.event(name=f"op-done:{op.request.task_id}") for op in device_ops}
    gates: Dict[int, List[SimEvent]] = {}
    last_in_task: Dict[int, LoweredOperation] = {}
    for op in device_ops:
        pre: List[SimEvent] = []
        task = op.request.task_id
        if task in last_in_task:
            pre.append(op_done[id(last_in_task[task])])
        for dep in op.request.depends_on:
            if dep in last_in_task:
                pre.append(op_done[id(last_in_task[dep])])
        gates[id(op)] = pre
        last_in_task[task] = op

    def instr_process(tpu_index: int, instr: LoweredInstr, wait_exec, exec_done: SimEvent):
        # Stage 0: ordering gates.
        for gate in gates[id(op_of_instr[id(instr)])]:
            if not gate.triggered:
                yield gate
        if not policy.pipelining and wait_exec is not None and not wait_exec.triggered:
            # Ablation: transfers wait for the previous execution.
            yield wait_exec

        # Stage 1: residency checks, inbound DMA and model build,
        # overlapped with whatever the device is still executing.
        device = platform.devices[tpu_index]
        data_bytes = instr.data_bytes
        if data_bytes and instr.cache_key:
            if device.memory.ensure(instr.cache_key, max(1, data_bytes)):
                data_bytes = 0
        model_bytes = instr.model_bytes
        if model_bytes and instr.model_cache_key:
            if device.memory.ensure(f"m:{instr.model_cache_key}", max(1, model_bytes)):
                model_bytes = 0
        inbound = data_bytes + model_bytes
        prep = []
        if inbound:
            prep.append(
                engine.process(
                    dma.transfer(tpu_index, inbound, label=instr.label),
                    name=f"dma-in:{instr.label}",
                )
            )
        if instr.model_build_seconds > 0:
            t0 = engine.now

            def build_proc(t0=t0):
                yield engine.timeout(instr.model_build_seconds)
                platform.tracer.record(t0, engine.now, "model_build", "cpu-core", label=instr.label)

            prep.append(engine.process(build_proc(), name=f"build:{instr.label}"))
        if prep:
            yield AllOf(engine, prep)

        # Stage 2: in-order execution on the matrix unit.
        if wait_exec is not None and not wait_exec.triggered:
            yield wait_exec
        t0 = engine.now
        yield engine.timeout(instr.burst_exec_seconds)
        exec_done.succeed()
        platform.tracer.record(
            t0,
            engine.now,
            "instruction",
            f"tpu{tpu_index}",
            label=instr.label,
            opcode=instr.opcode.opname,
            count=instr.count,
        )
        device.instructions_executed += instr.count
        device.busy_seconds += instr.burst_exec_seconds
        counters["instructions"] += instr.count

        # Stage 3: results stream back, overlapping the next execution.
        if instr.out_bytes:
            yield engine.process(
                dma.transfer(tpu_index, instr.out_bytes, label=f"out:{instr.label}"),
                name=f"dma-out:{instr.label}",
            )

        # Operation bookkeeping and CPU aggregation (§6.2.1).
        op = op_of_instr[id(instr)]
        remaining[id(op)] -= 1
        if remaining[id(op)] == 0:
            if op.cpu_seconds > 0:
                t0 = engine.now
                yield engine.timeout(op.cpu_seconds)
                platform.tracer.record(
                    t0, engine.now, "cpu_aggregate", "cpu-core", label=f"task{op.request.task_id}"
                )
            op_done[id(op)].succeed()

    def worker(tpu_index: int):
        prev_exec: Optional[SimEvent] = None
        while len(queue) > 0:
            group = yield queue.get()
            for instr in group.instrs:
                exec_done = engine.event(name=f"exec:{instr.label}")
                proc = engine.process(
                    instr_process(tpu_index, instr, prev_exec, exec_done),
                    name=f"instr:{instr.label}",
                )
                all_procs.append(proc)
                prev_exec = exec_done
            # Admit the next group once this one has executed.
            if prev_exec is not None and not prev_exec.triggered:
                yield prev_exec

    workers = [engine.process(worker(i), name=f"worker-tpu{i}") for i in range(platform.num_tpus)]

    def drain():
        for proc in workers:
            yield proc
        if all_procs:
            yield AllOf(engine, all_procs)
        for op in host_ops:
            t0 = engine.now
            yield engine.timeout(op.cpu_seconds)
            platform.tracer.record(
                t0, engine.now, "cpu_host", "cpu-core", label=f"task{op.request.task_id}"
            )

    engine.run_process(drain(), name="executor-drain")
    platform.now = engine.now
    return Timeline(
        makespan=engine.now - start,
        busy_by_unit=platform.tracer.busy_seconds(since=start),
        instructions=counters["instructions"],
        bytes_transferred=sum(platform.bytes_moved.values()) - bytes_before,
    )
