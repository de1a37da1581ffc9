"""Replays each ``sync()``'s lowered instruction streams as a timeline.

Each device runs a two-stage pipeline, the overlap §6.2.3 describes
("overlap Edge TPU matrix-input data movements with Tensorizer"):

* **front end** — host model build + inbound DMA for instruction *i+1*
  proceed while instruction *i* executes (double buffering);
* **back end** — the matrix unit executes instructions in order; result
  DMA back to the host overlaps the next instruction's execution.

Dispatch groups (§6.1 locality) stay whole on one device; a worker
admits the next group once the current group's last instruction has
executed, so groups pipeline within a device but never interleave.
Transfers cross the topology store-and-forward, holding each link
segment FIFO for its own occupancy (the model of the reference's
:class:`~repro.conformance.des.DMAEngine`).

Per-operation CPU aggregation time (§6.2.1) is charged on the host once
the operation's last instruction retires.  Host-only operations (no
device instructions) are charged serially at the end of the batch —
applications sync at their dependency boundaries, so this preserves
ordering.  Every activity lands in the platform tracer, which the
energy model integrates (§8.1).

The replay is a small event loop without generators: a heap of future
instants and a FIFO for the current one.  The reference's DES kernel
runs every event of one instant in the order it was scheduled, so the
replay matches the generator-process model in
:mod:`repro.conformance.des` bit for bit as long as each wait there is
one FIFO hop here and each timeout one heap entry.  The replay starts
at the platform clock (``platform.now``), sets it to its end, and adds
each transfer's bytes to ``platform.bytes_moved``.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.edgetpu.device import EdgeTPUDevice
from repro.errors import DeadlockError, SchedulerError
from repro.host.platform import Platform
from repro.runtime.opqueue import LoweredInstr, LoweredOperation
from repro.runtime.scheduler import DispatchGroup, SchedulePolicy, build_dispatch_groups
from repro.sim.trace import TraceRecord
from repro.telemetry import get_tracer


@dataclass(frozen=True)
class Timeline:
    """Outcome of one executor run."""

    #: Wall-clock makespan of the whole batch (simulated seconds).
    makespan: float
    #: Busy seconds per hardware unit (from the trace).
    busy_by_unit: Dict[str, float]
    #: Device instructions executed (bursts expanded).
    instructions: int
    #: Total bytes moved over PCIe.
    bytes_transferred: int

    def tpu_busy_seconds(self) -> float:
        """Total busy time across all Edge TPUs."""
        return sum(v for k, v in self.busy_by_unit.items() if k.startswith("tpu"))


@dataclass(frozen=True)
class GroupCost:
    """Modeled cost of one dispatch group admitted to one idle device."""

    #: Admission to last result byte back on the host (seconds).
    service_seconds: float
    #: Matrix-unit busy time (device utilization accounting).
    exec_seconds: float
    #: Bytes DMAed to the device after residency hits.
    bytes_in: int
    #: Result bytes streamed back.
    bytes_out: int


def group_service_seconds(
    group: DispatchGroup,
    device: EdgeTPUDevice,
    transfer_seconds: Callable[[int], float],
    policy: Optional[SchedulePolicy] = None,
) -> GroupCost:
    """Closed-form replay of one dispatch group on one device.

    The incremental-admission counterpart of :meth:`Executor.run`: the
    serving layer (:mod:`repro.serve`) admits groups to devices one at a
    time as requests arrive, so it needs the cost of a *single* group on
    an *idle* device rather than a whole-batch DES replay.  The model
    mirrors the executor's pipeline stage for stage — per-instruction
    inbound DMA (serialized on the device link) and model build overlap
    the previous instruction's execution when ``policy.pipelining`` is
    on, execution is in-order, and result DMA overlaps the next
    execution — and consumes the same on-chip residency state
    (``device.memory``), so cached chunks and models skip their
    transfers exactly as the DES path would.

    ``transfer_seconds`` maps a byte count to the host↔device transfer
    latency for this device's topology path (uncontended).
    """
    policy = policy or SchedulePolicy()
    dma_free = 0.0  # when the device's inbound link is next idle
    exec_free = 0.0  # when the matrix unit is next idle
    done = 0.0
    exec_total = 0.0
    bytes_in = 0
    bytes_out = 0
    for instr in group.instrs:
        data = instr.data_bytes
        if data and instr.cache_key and device.memory.ensure(instr.cache_key, max(1, data)):
            data = 0  # hit: chunk already on chip
        model = instr.model_bytes
        if model and instr.model_cache_key and device.memory.ensure(
            f"m:{instr.model_cache_key}", max(1, model)
        ):
            model = 0
        inbound = data + model
        # Without pipelining, transfers wait for the previous execution.
        start = 0.0 if policy.pipelining else exec_free
        dma_end = max(dma_free, start) + (transfer_seconds(inbound) if inbound else 0.0)
        dma_free = dma_end
        ready = max(dma_end, start + instr.model_build_seconds)
        exec_start = max(ready, exec_free)
        exec_free = exec_start + instr.burst_exec_seconds
        exec_total += instr.burst_exec_seconds
        out_t = transfer_seconds(instr.out_bytes) if instr.out_bytes else 0.0
        if policy.pipelining:
            done = max(done, exec_free + out_t)
        else:
            dma_free = exec_free + out_t
            done = dma_free
        bytes_in += inbound
        bytes_out += instr.out_bytes
    return GroupCost(
        service_seconds=max(done, exec_free),
        exec_seconds=exec_total,
        bytes_in=bytes_in,
        bytes_out=bytes_out,
    )




class Executor:
    """Drives a batch of lowered operations to completion on a platform."""

    def __init__(self, platform: Platform, policy: Optional[SchedulePolicy] = None) -> None:
        self.platform = platform
        self.policy = policy or SchedulePolicy()

    def run(self, ops: Sequence[LoweredOperation]) -> Timeline:
        """Execute all operations; returns the simulated timeline."""
        tracer = get_tracer()
        if not tracer.enabled:
            return self._run(ops)
        with tracer.span("executor.run", cat="executor", operations=len(ops)) as sp:
            timeline = self._run(ops)
            sp.add_device_seconds(timeline.tpu_busy_seconds())
            sp.set(makespan_seconds=timeline.makespan)
            return timeline

    def _run(self, ops: Sequence[LoweredOperation]) -> Timeline:
        if not ops:
            raise SchedulerError("nothing to execute")
        platform = self.platform
        start = platform.now
        bytes_before = sum(platform.bytes_moved.values())
        device_ops = [op for op in ops if op.instrs]
        # Host-only operations: pure CPU phases an application routes
        # through the runtime so wall time and energy stay in one ledger.
        host_ops = [op for op in ops if not op.instrs]
        if any(op.cpu_seconds < 0 for op in host_ops):
            raise SchedulerError("host-only operations need cpu_seconds >= 0")
        iq = [instr for op in device_ops for instr in op.instrs]
        groups = build_dispatch_groups(iq, self.policy)
        instructions, now = _replay(platform, self.policy.pipelining, start, device_ops, iq, groups)
        for op in host_ops:
            t0, now = now, now + op.cpu_seconds
            platform.tracer.record(
                t0, now, "cpu_host", "cpu-core", label=f"task{op.request.task_id}"
            )
        platform.now = now
        return Timeline(
            makespan=now - start,
            busy_by_unit=platform.tracer.busy_seconds(since=start),
            instructions=instructions,
            bytes_transferred=sum(platform.bytes_moved.values()) - bytes_before,
        )


# -- the replay ---------------------------------------------------------------
#
# The replay's state is ints and lists of them, never closures or bound
# methods: those form reference cycles with the state and keep every
# sync's operations alive until a full garbage collection.
#
# Each step below is one step of one of the DES reference's processes
# (:mod:`repro.conformance.des`).  A step that waits schedules the next
# step as a FIFO hop, exactly where the DES would resume the generator;
# a step that sleeps pushes a heap entry.  A hop is one int,
# ``index << 4 | step``, and the loop dispatches on the step inline.
#
# All state lives in per-sync lists, so a sync builds no object per
# instruction.  Instruction *k* is the k-th entry of the sync's IQ
# (dispatch groups are consecutive runs of it).  A one-shot event is a
# *flag*: flags ``0..ops-1`` are the operations' "done", flag
# ``ops + k`` is instruction k's "executed"; each waiter runs one hop
# after its flag fires.  Instruction k has at most one inbound and one
# result transfer, numbered ``2k`` and ``2k + 1``.

# Steps.  The index of a hop is a device (worker steps), an instruction,
# an operation, a transfer, or (``_TIMER``) the hop a zero-delay sleep
# wakes one hop later.
_NEXT, _ADMIT = 0, 1
_START, _PREP, _BUILD, _BUILT, _PREPPED, _READY, _EXEC, _EXECUTED, _RETIRE = range(2, 11)
_AGGREGATED = 11
_REQUEST, _GRANTED, _HOP_DONE = 12, 13, 14
_TIMER = 15

#: Builds a record from its field tuple, skipping the generated
#: ``__new__``'s argument handling.
_new_record = tuple.__new__


def _replay(
    platform: Platform,
    pipelining: bool,
    start: float,
    device_ops: List[LoweredOperation],
    iq: List[LoweredInstr],
    groups: List[DispatchGroup],
) -> Tuple[int, float]:
    """Replays one sync's dispatch groups (over *iq*, the operations'
    instructions in order) on the platform's devices from *start* to
    the last retirement; returns (instructions executed, end time)."""
    emit = platform.tracer.appender()
    bytes_moved = platform.bytes_moved
    devices = platform.devices
    memories = [device.memory for device in devices]
    units = [f"tpu{i}" for i in range(platform.num_tpus)]
    topology = platform.topology
    link_index = {name: i for i, name in enumerate(topology.links)}
    path_links = [topology.path_links(i) for i in range(topology.num_tpus)]
    paths = [tuple(link_index[name] for name in path) for path in topology.paths]
    link_busy = [False] * len(link_index)
    link_waiters: List[Deque[int]] = [deque() for _ in link_index]
    # Per TPU: transfer size -> its occupancy of each link on the path.
    occupancy: List[Dict[int, Tuple[float, ...]]] = [{} for _ in paths]
    # Residency key of each model cache key (``"m:" + key``).
    model_keys: Dict[str, str] = {}

    n_ops = len(device_ops)
    n = len(iq)
    # §5 dataflow ordering.  Operators within one task serialize; an
    # operation also waits for every task named in depends_on.  Since
    # intra-task order is serial, waiting on a task's most recent
    # operation implies all of its predecessors.
    last_in_task: Dict[int, int] = {}
    gates: List[List[int]] = []
    for j, op in enumerate(device_ops):
        task = op.request.task_id
        gate = [last_in_task[task]] if task in last_in_task else []
        gate += [last_in_task[dep] for dep in op.request.depends_on if dep in last_in_task]
        gates.append(gate)
        last_in_task[task] = j
    remaining = [len(op.instrs) for op in device_ops]
    op_t0 = [0.0] * n_ops
    fired = [False] * (n_ops + n)
    waiters: List[Optional[List[int]]] = [None] * (n_ops + n)
    # Per instruction: its operation, device, the flag it executes
    # after (-1: none), stage-1 activities still running, and the
    # start of its model build and of its execution.
    op_of = [j for j, op in enumerate(device_ops) for _ in op.instrs]
    tpu_of = [0] * n
    after = [-1] * n
    pending = [0] * n
    build_t0 = [0.0] * n
    exec_t0 = [0.0] * n
    # Per transfer: bytes, link hops taken, link occupancies, when it
    # was created and when it first held a link.
    nbytes_of = [0] * (2 * n)
    hop_of = [0] * (2 * n)
    occ_of: List[Tuple[float, ...]] = [()] * (2 * n)
    wait_t0 = [0.0] * (2 * n)
    start_of: List[Optional[float]] = [None] * (2 * n)
    # Dispatch queue: group g is instructions bounds[g]..bounds[g+1].
    bounds = [0]
    for group in groups:
        bounds.append(bounds[-1] + len(group.instrs))
    if bounds[-1] != n:
        raise SchedulerError("dispatch groups do not cover the instruction queue")
    queue = deque(range(len(groups)))
    group_of = [0] * len(devices)
    prev_exec = [-1] * len(devices)

    fifo: Deque[int] = deque(i << 4 | _NEXT for i in range(len(devices)))
    append, popleft = fifo.append, fifo.popleft
    heap: List[Tuple[float, int, int]] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    seq = 0
    now = start
    live = 0
    instructions = 0
    while True:
        while fifo:
            code = popleft()
            step = code & 15
            i = code >> 4
            if step == _GRANTED:  # transfer i holds its next link
                if start_of[i] is None:
                    start_of[i] = now
                due = now + occ_of[i][hop_of[i]]
                if due == now:
                    # A zero (or absorbed) delay stays in this
                    # instant: one hop for the timer, one for the
                    # wakeup, as in the DES.
                    append((i << 4 | _HOP_DONE) << 4 | _TIMER)
                else:
                    seq += 1
                    heappush(heap, (due, seq, i << 4 | _HOP_DONE))
                continue
            if step == _HOP_DONE:
                # Store-and-forward: release this segment (granting
                # its oldest waiter), then queue for the next one.
                k = i >> 1
                tpu = tpu_of[k]
                path = paths[tpu]
                hop = hop_of[i]
                link = path[hop]
                queued = link_waiters[link]
                if queued:
                    append(queued.popleft() << 4 | _GRANTED)
                else:
                    link_busy[link] = False
                hop = hop_of[i] = hop + 1
                if hop == len(path):
                    nbytes = nbytes_of[i]
                    bytes_moved[tpu] = bytes_moved.get(tpu, 0) + nbytes
                    if emit is not None:
                        start = start_of[i]
                        label = iq[k].label
                        label = f"out:{label}" if i & 1 else label or f"{nbytes}B"
                        emit(_new_record(TraceRecord, (
                            start, now, "transfer", units[tpu], label,
                            {"nbytes": nbytes, "queued_seconds": start - wait_t0[i]},
                        )))
                    append(k << 4 | (_RETIRE if i & 1 else _PREPPED))
                    continue
                step = _REQUEST
            if step == _REQUEST:
                # A free link is granted at once and its holder
                # resumes a hop later; a busy one queues it FIFO.
                link = paths[tpu_of[i >> 1]][hop_of[i]]
                if link_busy[link]:
                    link_waiters[link].append(i)
                else:
                    link_busy[link] = True
                    append(i << 4 | _GRANTED)
                continue
            if step == _PREPPED:
                # One stage-1 activity finished; the last one wakes
                # the instruction a hop later (the DES's ``AllOf``).
                pending[i] -= 1
                if not pending[i]:
                    append(i << 4 | _READY)
                continue
            if step == _NEXT:
                # Device i takes the next group now and starts its
                # instructions one hop later.
                if queue:
                    group_of[i] = queue.popleft()
                    append(i << 4 | _ADMIT)
                continue
            if step == _START:
                # Stage 0: §5 ordering gates; a fired gate costs no hop.
                for gate in gates[op_of[i]]:
                    if not fired[gate]:
                        if waiters[gate] is None:
                            waiters[gate] = [code]
                        else:
                            waiters[gate].append(code)
                        break
                else:
                    wait = after[i]
                    if pipelining or wait < 0 or fired[wait]:
                        step = _PREP
                    else:
                        # Ablation: no double buffering — transfers
                        # wait for the previous instruction to finish
                        # executing.
                        if waiters[wait] is None:
                            waiters[wait] = [i << 4 | _PREP]
                        else:
                            waiters[wait].append(i << 4 | _PREP)
                if step != _PREP:
                    continue
            if step == _PREP:
                # Stage 1: residency checks + inbound DMA + model
                # build, overlapped with whatever the device is still
                # executing.
                instr = iq[i]
                tpu = tpu_of[i]
                memory = memories[tpu]
                data_bytes = instr.data_bytes
                if data_bytes and instr.cache_key and memory.ensure(
                    instr.cache_key, max(1, data_bytes)
                ):
                    data_bytes = 0  # hit: chunk already on chip
                model_bytes = instr.model_bytes
                if model_bytes and instr.model_cache_key:
                    key = model_keys.get(instr.model_cache_key)
                    if key is None:
                        key = model_keys[instr.model_cache_key] = f"m:{instr.model_cache_key}"
                    if memory.ensure(key, max(1, model_bytes)):
                        model_bytes = 0
                inbound = data_bytes + model_bytes
                if inbound:
                    # Like every DES process, a transfer starts one
                    # hop after it is created.
                    t = 2 * i
                    occ = occupancy[tpu].get(inbound)
                    if occ is None:
                        occ = occupancy[tpu][inbound] = tuple(
                            link.occupancy_seconds(inbound) for link in path_links[tpu]
                        )
                    nbytes_of[t] = inbound
                    occ_of[t] = occ
                    wait_t0[t] = now
                    append(t << 4 | _REQUEST)
                if instr.model_build_seconds > 0:
                    build_t0[i] = now
                    append(i << 4 | _BUILD)  # the build process starts a hop later
                    pending[i] = 2 if inbound else 1
                    continue
                if inbound:
                    pending[i] = 1
                    continue
                step = _READY
            if step == _READY:
                # Stage 2: in-order execution on the matrix unit.
                wait = after[i]
                if wait >= 0 and not fired[wait]:
                    if waiters[wait] is None:
                        waiters[wait] = [i << 4 | _EXEC]
                    else:
                        waiters[wait].append(i << 4 | _EXEC)
                    continue
                step = _EXEC
            if step == _EXEC:
                exec_t0[i] = now
                instr = iq[i]
                due = now + instr.exec_seconds * instr.count
                if due == now:
                    append((i << 4 | _EXECUTED) << 4 | _TIMER)
                else:
                    seq += 1
                    heappush(heap, (due, seq, i << 4 | _EXECUTED))
                continue
            if step == _EXECUTED:
                flag = n_ops + i
                fired[flag] = True
                if waiters[flag] is not None:
                    fifo.extend(waiters[flag])
                    waiters[flag] = None
                instr = iq[i]
                tpu = tpu_of[i]
                count = instr.count
                if emit is not None:
                    emit(_new_record(TraceRecord, (
                        exec_t0[i], now, "instruction", units[tpu], instr.label,
                        {"opcode": instr.opcode.opname, "count": count},
                    )))
                device = devices[tpu]
                device.instructions_executed += count
                device.busy_seconds += instr.exec_seconds * count
                instructions += count
                # Stage 3: results stream back, overlapping the next
                # exec.
                out_bytes = instr.out_bytes
                if out_bytes:
                    t = 2 * i + 1
                    occ = occupancy[tpu].get(out_bytes)
                    if occ is None:
                        occ = occupancy[tpu][out_bytes] = tuple(
                            link.occupancy_seconds(out_bytes) for link in path_links[tpu]
                        )
                    nbytes_of[t] = out_bytes
                    occ_of[t] = occ
                    wait_t0[t] = now
                    append(t << 4 | _REQUEST)
                    continue
                step = _RETIRE
            if step == _RETIRE:
                # Operation bookkeeping + CPU aggregation (§6.2.1).
                j = op_of[i]
                remaining[j] -= 1
                if remaining[j] == 0:
                    cpu_seconds = device_ops[j].cpu_seconds
                    if cpu_seconds > 0:
                        op_t0[j] = now
                        due = now + cpu_seconds
                        if due == now:
                            append((j << 4 | _AGGREGATED) << 4 | _TIMER)
                        else:
                            seq += 1
                            heappush(heap, (due, seq, j << 4 | _AGGREGATED))
                        continue
                    fired[j] = True
                    if waiters[j] is not None:
                        fifo.extend(waiters[j])
                        waiters[j] = None
                live -= 1
                continue
            if step == _TIMER:
                append(i)
                continue
            if step == _BUILD:
                due = now + iq[i].model_build_seconds
                if due == now:
                    append((i << 4 | _BUILT) << 4 | _TIMER)
                else:
                    seq += 1
                    heappush(heap, (due, seq, i << 4 | _BUILT))
                continue
            if step == _BUILT:
                if emit is not None:
                    emit(_new_record(TraceRecord, (
                        build_t0[i], now, "model_build", "cpu-core", iq[i].label, {},
                    )))
                append(i << 4 | _PREPPED)
                continue
            if step == _ADMIT:
                g = group_of[i]
                k0, k1 = bounds[g], bounds[g + 1]
                prev = prev_exec[i]
                for k in range(k0, k1):
                    tpu_of[k] = i
                    after[k] = prev
                    append(k << 4 | _START)
                    prev = n_ops + k
                live += k1 - k0
                prev_exec[i] = prev
                # Admit the next group only once this group has
                # executed (groups pipeline, but never interleave on
                # a device).
                if fired[prev]:
                    append(i << 4 | _NEXT)
                elif waiters[prev] is None:
                    waiters[prev] = [i << 4 | _NEXT]
                else:
                    waiters[prev].append(i << 4 | _NEXT)
                continue
            # _AGGREGATED: operation i's CPU aggregation is over.
            if emit is not None:
                label = f"task{device_ops[i].request.task_id}"
                emit(_new_record(TraceRecord, (
                    op_t0[i], now, "cpu_aggregate", "cpu-core", label, {},
                )))
            fired[i] = True
            if waiters[i] is not None:
                fifo.extend(waiters[i])
                waiters[i] = None
            live -= 1
        if not heap:
            break
        # Everything due at the next instant runs before anything it
        # schedules: the DES pops timers in (time, seq) order, and a
        # fired timer's wakeup is one hop, behind all of them.
        now = heap[0][0]
        while heap and heap[0][0] == now:
            append(heappop(heap)[2])
    if live:
        raise DeadlockError(
            f"timeline replay ran out of events with {live} instruction(s) waiting"
        )
    return instructions, now
