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
segment FIFO for its own occupancy (:class:`~repro.interconnect.
transfer.DMAEngine`'s model).

Per-operation CPU aggregation time (§6.2.1) is charged on the host once
the operation's last instruction retires.  Host-only operations (no
device instructions) are charged serially at the end of the batch —
applications sync at their dependency boundaries, so this preserves
ordering.  Every activity lands in the platform tracer, which the
energy model integrates (§8.1).

The replay is a small event loop without generators: a heap of future
instants and a FIFO for the current one.  The DES kernel runs every
event of one instant in the order it was scheduled, so the replay
matches the generator-process model in
:mod:`repro.conformance.des` bit for bit as long as each wait there is
one FIFO hop here and each timeout one heap entry.  The platform clock
(``platform.engine.now``) advances to the replay's end through
:meth:`~repro.sim.engine.Engine.advance_to`.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.edgetpu.device import EdgeTPUDevice
from repro.errors import DeadlockError, SchedulerError
from repro.host.platform import Platform
from repro.runtime.opqueue import LoweredInstr, LoweredOperation
from repro.runtime.scheduler import DispatchGroup, SchedulePolicy, build_dispatch_groups
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
        start = platform.engine.now
        bytes_before = sum(platform.dma.bytes_moved.values())
        device_ops = [op for op in ops if op.instrs]
        # Host-only operations: pure CPU phases an application routes
        # through the runtime so wall time and energy stay in one ledger.
        host_ops = [op for op in ops if not op.instrs]
        if any(op.cpu_seconds < 0 for op in host_ops):
            raise SchedulerError("host-only operations need cpu_seconds >= 0")
        iq = [instr for op in device_ops for instr in op.instrs]
        replay = _Replay(platform, self.policy, start)
        instructions = replay.run(device_ops, build_dispatch_groups(iq, self.policy))
        now = replay.now
        for op in host_ops:
            t0, now = now, now + op.cpu_seconds
            platform.tracer.record(
                t0, now, "cpu_host", "cpu-core", label=f"task{op.request.task_id}"
            )
        platform.engine.advance_to(now)
        return Timeline(
            makespan=now - start,
            busy_by_unit=platform.tracer.busy_seconds(since=start),
            instructions=instructions,
            bytes_transferred=sum(platform.dma.bytes_moved.values()) - bytes_before,
        )


# -- the replay ---------------------------------------------------------------
#
# Everything below lives at module level on purpose: classes or closures
# defined inside ``Executor._run`` form reference cycles with the
# replay's state and keep every sync's operations alive until a full
# garbage collection.
#
# Each method is one step of one of the DES reference's processes
# (:mod:`repro.conformance.des`).  A step that waits schedules the next
# step as a FIFO hop (``(method, state)``), exactly where the DES would
# resume the generator; a step that sleeps pushes a heap entry.


class _Flag:
    """A one-shot event: each waiter runs one hop after it fires."""

    __slots__ = ("fired", "waiters")

    def __init__(self) -> None:
        self.fired = False
        self.waiters: List[tuple] = []


class _Link:
    """One link segment: held by one transfer, the rest wait FIFO."""

    __slots__ = ("link", "busy", "waiters")

    def __init__(self, link) -> None:
        self.link = link
        self.busy = False
        self.waiters: Deque["_Transfer"] = deque()


class _Op:
    """Bookkeeping of one device operation."""

    __slots__ = ("op", "remaining", "done", "gates", "t0")

    def __init__(self, op: LoweredOperation, gates: List[_Flag]) -> None:
        self.op = op
        self.remaining = len(op.instrs)
        self.done = _Flag()
        self.gates = gates
        self.t0 = 0.0


class _Instr:
    """One instruction in flight on one device."""

    __slots__ = ("tpu", "instr", "op", "wait_exec", "exec_done", "pending", "t0", "build_t0")

    def __init__(self, tpu: int, instr: LoweredInstr, op: _Op, wait_exec: Optional[_Flag]) -> None:
        self.tpu = tpu
        self.instr = instr
        self.op = op
        self.wait_exec = wait_exec
        self.exec_done = _Flag()
        #: Stage-1 activities (inbound DMA, model build) still running.
        self.pending = 0
        self.t0 = 0.0
        self.build_t0 = 0.0


class _Worker:
    """The dispatch loop of one device."""

    __slots__ = ("tpu", "group", "prev_exec")

    def __init__(self, tpu: int) -> None:
        self.tpu = tpu
        self.group: Optional[DispatchGroup] = None
        self.prev_exec: Optional[_Flag] = None


class _Transfer:
    """One store-and-forward DMA transfer."""

    __slots__ = ("tpu", "nbytes", "label", "path", "hop", "start_wait", "start", "then")

    def __init__(
        self,
        tpu: int,
        nbytes: int,
        label: str,
        path: Tuple[_Link, ...],
        start_wait: float,
        then: tuple,
    ) -> None:
        self.tpu = tpu
        self.nbytes = nbytes
        self.label = label
        self.path = path
        self.hop = 0
        self.start_wait = start_wait
        self.start: Optional[float] = None
        #: The hop that runs when the last byte lands.
        self.then = then


class _Replay:
    """Replays one sync's dispatch groups on the platform's devices."""

    def __init__(self, platform: Platform, policy: SchedulePolicy, start: float) -> None:
        self.now = start
        self.fifo: Deque[tuple] = deque()
        self.heap: List[tuple] = []
        self.seq = itertools.count()
        self.pipelining = policy.pipelining
        self.record = platform.tracer.record
        dma = platform.dma
        self.dma_record = dma.tracer.record if dma.tracer is not None else None
        self.bytes_moved = dma.bytes_moved
        self.devices = platform.devices
        self.units = [f"tpu{i}" for i in range(platform.num_tpus)]
        links = {name: _Link(link) for name, link in dma.topology.links.items()}
        self.paths = [tuple(links[name] for name in path) for path in dma.topology.paths]
        self.queue: Deque[DispatchGroup] = deque()
        self.op_of: Dict[int, _Op] = {}
        self.instructions = 0
        self.live = 0

    def run(self, device_ops: List[LoweredOperation], groups: List[DispatchGroup]) -> int:
        """Replay to the last retirement; returns instructions executed."""
        # §5 dataflow ordering.  Operators within one task serialize; an
        # operation also waits for every task named in depends_on.  Since
        # intra-task order is serial, waiting on a task's most recent
        # operation implies all of its predecessors.
        last_in_task: Dict[int, _Op] = {}
        for op in device_ops:
            task = op.request.task_id
            gates = [last_in_task[task].done] if task in last_in_task else []
            gates += [
                last_in_task[dep].done for dep in op.request.depends_on if dep in last_in_task
            ]
            state = last_in_task[task] = _Op(op, gates)
            for instr in op.instrs:
                self.op_of[id(instr)] = state
        self.queue.extend(groups)
        self.fifo.extend((self._worker_next, _Worker(i)) for i in range(len(self.devices)))
        self._loop()
        if self.live:
            raise DeadlockError(
                f"timeline replay ran out of events with {self.live} instruction(s) waiting"
            )
        return self.instructions

    # -- event loop -----------------------------------------------------------

    def _loop(self) -> None:
        fifo, heap = self.fifo, self.heap
        popleft, append, heappop = fifo.popleft, fifo.append, heapq.heappop
        while True:
            while fifo:
                step, state = popleft()
                step(state)
            if not heap:
                return
            # Everything due at the next instant runs before anything it
            # schedules: the DES pops timers in (time, seq) order, and a
            # fired timer's wakeup is one hop, behind all of them.
            now = self.now = heap[0][0]
            while heap and heap[0][0] == now:
                _, _, step, state = heappop(heap)
                append((step, state))

    def _sleep(self, delay: float, step: Callable, state) -> None:
        due = self.now + delay
        if due == self.now:
            # A zero (or absorbed) delay stays in this instant: one hop
            # for the timer, one for the wakeup, as in the DES.
            self.fifo.append((self.fifo.append, (step, state)))
        else:
            heapq.heappush(self.heap, (due, next(self.seq), step, state))

    def _wait(self, flag: _Flag, step: Callable, state) -> None:
        if flag.fired:
            self.fifo.append((step, state))
        else:
            flag.waiters.append((step, state))

    def _fire(self, flag: _Flag) -> None:
        flag.fired = True
        self.fifo.extend(flag.waiters)
        flag.waiters = []

    # -- workers ----------------------------------------------------------------

    def _worker_next(self, worker: _Worker) -> None:
        # Take the next group now; start its instructions one hop later.
        if self.queue:
            worker.group = self.queue.popleft()
            self.fifo.append((self._worker_admit, worker))

    def _worker_admit(self, worker: _Worker) -> None:
        prev = worker.prev_exec
        for instr in worker.group.instrs:
            run = _Instr(worker.tpu, instr, self.op_of[id(instr)], prev)
            self.fifo.append((self._instr_start, run))
            prev = run.exec_done
        self.live += len(worker.group.instrs)
        worker.prev_exec = prev
        # Admit the next group only once this group has executed
        # (groups pipeline, but never interleave on a device).
        self._wait(prev, self._worker_next, worker)

    # -- one instruction ----------------------------------------------------------

    def _instr_start(self, run: _Instr) -> None:
        # Stage 0: §5 ordering gates; a fired gate costs no hop.
        for gate in run.op.gates:
            if not gate.fired:
                self._wait(gate, self._instr_start, run)
                return
        wait = run.wait_exec
        if not self.pipelining and wait is not None and not wait.fired:
            # Ablation: no double buffering — transfers wait for the
            # previous instruction to finish executing.
            self._wait(wait, self._instr_prep, run)
            return
        self._instr_prep(run)

    def _instr_prep(self, run: _Instr) -> None:
        # Stage 1: residency checks + inbound DMA + model build,
        # overlapped with whatever the device is still executing.
        instr = run.instr
        memory = self.devices[run.tpu].memory
        data_bytes = instr.data_bytes
        if data_bytes and instr.cache_key and memory.ensure(instr.cache_key, max(1, data_bytes)):
            data_bytes = 0  # hit: chunk already on chip
        model_bytes = instr.model_bytes
        if model_bytes and instr.model_cache_key and memory.ensure(
            f"m:{instr.model_cache_key}", max(1, model_bytes)
        ):
            model_bytes = 0
        inbound = data_bytes + model_bytes
        if inbound:
            run.pending += 1
            self._transfer(run.tpu, inbound, instr.label, (self._instr_prepped, run))
        if instr.model_build_seconds > 0:
            run.pending += 1
            run.build_t0 = self.now
            self.fifo.append((self._build, run))  # the build process starts a hop later
        if not run.pending:
            self._instr_ready(run)

    def _build(self, run: _Instr) -> None:
        self._sleep(run.instr.model_build_seconds, self._built, run)

    def _built(self, run: _Instr) -> None:
        self.record(run.build_t0, self.now, "model_build", "cpu-core", label=run.instr.label)
        self.fifo.append((self._instr_prepped, run))

    def _instr_prepped(self, run: _Instr) -> None:
        # One stage-1 activity finished; the last one wakes the
        # instruction a hop later (the DES's ``AllOf``).
        run.pending -= 1
        if not run.pending:
            self.fifo.append((self._instr_ready, run))

    def _instr_ready(self, run: _Instr) -> None:
        # Stage 2: in-order execution on the matrix unit.
        wait = run.wait_exec
        if wait is not None and not wait.fired:
            self._wait(wait, self._instr_exec, run)
            return
        self._instr_exec(run)

    def _instr_exec(self, run: _Instr) -> None:
        run.t0 = self.now
        self._sleep(run.instr.burst_exec_seconds, self._instr_executed, run)

    def _instr_executed(self, run: _Instr) -> None:
        self._fire(run.exec_done)
        instr = run.instr
        self.record(
            run.t0,
            self.now,
            "instruction",
            self.units[run.tpu],
            label=instr.label,
            opcode=instr.opcode.opname,
            count=instr.count,
        )
        device = self.devices[run.tpu]
        device.instructions_executed += instr.count
        device.busy_seconds += instr.burst_exec_seconds
        self.instructions += instr.count
        # Stage 3: results stream back, overlapping the next exec.
        if instr.out_bytes:
            then = (self._instr_retire, run)
            self._transfer(run.tpu, instr.out_bytes, f"out:{instr.label}", then)
        else:
            self._instr_retire(run)

    def _instr_retire(self, run: _Instr) -> None:
        # Operation bookkeeping + CPU aggregation (§6.2.1).
        op = run.op
        op.remaining -= 1
        if op.remaining == 0:
            if op.op.cpu_seconds > 0:
                op.t0 = self.now
                self._sleep(op.op.cpu_seconds, self._op_aggregated, op)
                return
            self._fire(op.done)
        self.live -= 1

    def _op_aggregated(self, op: _Op) -> None:
        label = f"task{op.op.request.task_id}"
        self.record(op.t0, self.now, "cpu_aggregate", "cpu-core", label=label)
        self._fire(op.done)
        self.live -= 1

    # -- DMA ---------------------------------------------------------------------

    def _transfer(self, tpu: int, nbytes: int, label: str, then: tuple) -> None:
        # Like every DES process, a transfer starts one hop after it is
        # created.
        tr = _Transfer(tpu, nbytes, label, self.paths[tpu], self.now, then)
        self.fifo.append((self._request, tr))

    def _request(self, tr: _Transfer) -> None:
        # A free link is granted at once and its holder resumes a hop
        # later; a busy one queues the transfer FIFO.
        link = tr.path[tr.hop]
        if link.busy:
            link.waiters.append(tr)
        else:
            link.busy = True
            self.fifo.append((self._granted, tr))

    def _granted(self, tr: _Transfer) -> None:
        if tr.start is None:
            tr.start = self.now
        self._sleep(tr.path[tr.hop].link.occupancy_seconds(tr.nbytes), self._hop_done, tr)

    def _hop_done(self, tr: _Transfer) -> None:
        # Store-and-forward: release this segment (granting its oldest
        # waiter), then queue for the next one.
        link = tr.path[tr.hop]
        if link.waiters:
            self.fifo.append((self._granted, link.waiters.popleft()))
        else:
            link.busy = False
        tr.hop += 1
        if tr.hop < len(tr.path):
            self._request(tr)
            return
        self.bytes_moved[tr.tpu] = self.bytes_moved.get(tr.tpu, 0) + tr.nbytes
        if self.dma_record is not None:
            self.dma_record(
                tr.start,
                self.now,
                kind="transfer",
                unit=self.units[tr.tpu],
                label=tr.label or f"{tr.nbytes}B",
                nbytes=tr.nbytes,
                queued_seconds=tr.start - tr.start_wait,
            )
        self.fifo.append(tr.then)
