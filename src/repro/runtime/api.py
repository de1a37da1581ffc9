"""OpenCtpu — the GPTPU programming interface (paper §5, Table 2).

A Python rendering of the paper's C/C++ extension.  The Table 2 calls
map one-to-one:

====================================  =====================================
paper                                 here
====================================  =====================================
``openctpu_alloc_dimension(n, ...)``  :meth:`OpenCtpu.alloc_dimension`
``openctpu_create_buffer(dim, p)``    :meth:`OpenCtpu.create_buffer`
``openctpu_enqueue(func, ...)``       :meth:`OpenCtpu.enqueue`
``openctpu_invoke_operator(op, ...)`` :meth:`OpenCtpu.invoke_operator`
``openctpu_sync()``                   :meth:`OpenCtpu.sync`
``openctpu_wait(task_id)``            :meth:`OpenCtpu.wait`
====================================  =====================================

Semantics follow §5/§6.1: operators inside one kernel run serially;
distinct tasks run out of order in parallel across the available Edge
TPUs.  Functional results are produced at invoke time (they are
deterministic); the parallel *timeline* — DMA, model builds, device
queues, CPU aggregation — is resolved when :meth:`sync` replays the
instruction queue on the DES platform.

:class:`TpuTensor` provides the overloaded tensor operators (+, -, *,
@) the paper mentions as OpenCtpu conveniences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.errors import RuntimeAPIError, TaskError
from repro.edgetpu.isa import Opcode
from repro.host.energy import EnergyReport
from repro.host.platform import Platform
from repro.plan import PlanCache
from repro.runtime.buffers import Buffer, Dimension, alloc_dimension, create_buffer
from repro.runtime.executor import Executor, Timeline
from repro.runtime.opqueue import LoweredOperation, OperationRequest, QuantMode
from repro.runtime.scheduler import SchedulePolicy
from repro.runtime.tensorizer import Tensorizer, TensorizerOptions
from repro.telemetry import (
    CounterRegistry,
    SpanTracer,
    device_counters,
    get_tracer,
    memory_counters,
    plan_counters,
    tensorizer_counters,
)

_OPCODES_BY_NAME = {op.opname: op for op in Opcode}
_OPCODES_BY_NAME.update({op.opname.lower(): op for op in Opcode})

ArrayLike = Union[Buffer, np.ndarray, float, int]


@dataclass(frozen=True)
class SyncReport:
    """What ``openctpu_sync`` returns: the timeline plus energy."""

    timeline: Timeline
    energy: EnergyReport

    @property
    def wall_seconds(self) -> float:
        """Simulated wall time of the synced batch."""
        return self.timeline.makespan


class OpenCtpu:
    """One GPTPU runtime context bound to a (simulated) platform."""

    def __init__(
        self,
        platform: Optional[Platform] = None,
        options: Optional[TensorizerOptions] = None,
        policy: Optional[SchedulePolicy] = None,
        quant: QuantMode = QuantMode.SCALE,
        tracer: Optional[SpanTracer] = None,
        plan_cache: Optional[PlanCache] = None,
    ) -> None:
        self.platform = platform or Platform()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.plan_cache = plan_cache
        self.tensorizer = Tensorizer(
            self.platform.config.edgetpu, options, self.platform.cpu,
            tracer=self.tracer, plan_cache=plan_cache,
        )
        self.executor = Executor(self.platform, policy)
        self.default_quant = quant
        self._task_ids = itertools.count()
        self._current_task: Optional[int] = None
        self._pending: List[LoweredOperation] = []
        self._task_state: Dict[int, str] = {}  # "pending" | "done"
        self._last_report: Optional[SyncReport] = None
        self._last_task: Optional[int] = None

    # ------------------------------------------------------------------
    # Table 2 API
    # ------------------------------------------------------------------

    def alloc_dimension(self, ndim: int, *sizes: int) -> Dimension:
        """``openctpu_alloc_dimension``."""
        return alloc_dimension(ndim, *sizes)

    def create_buffer(self, dimension: Dimension, data: Optional[np.ndarray] = None) -> Buffer:
        """``openctpu_create_buffer``."""
        return create_buffer(dimension, data)

    def enqueue(self, kernel: Callable[..., None], *args: object) -> int:
        """``openctpu_enqueue``: run *kernel* as a new TPU task.

        The kernel body typically calls :meth:`invoke_operator`; each call
        appends to the OPQ under this task's ID.  Returns the task ID.
        """
        if self._current_task is not None:
            raise RuntimeAPIError("nested enqueue: kernels cannot enqueue kernels")
        task_id = next(self._task_ids)
        self._task_state[task_id] = "pending"
        self._current_task = task_id
        try:
            kernel(*args)
        finally:
            self._current_task = None
        return task_id

    def invoke_operator(
        self,
        op: Union[Opcode, str],
        *inputs: ArrayLike,
        out: Optional[Buffer] = None,
        quant: Optional[QuantMode] = None,
        depends_on: Optional[Sequence[int]] = None,
        **attrs: object,
    ) -> np.ndarray:
        """``openctpu_invoke_operator``: request one TPU operator.

        Inputs may be :class:`Buffer` objects or raw arrays.  Keyword
        attributes reach the Tensorizer (e.g. ``gemm=True`` selects the
        §7.1.2 conv2D GEMM lowering; ``crop_box``/``ext_shape`` drive the
        data-movement ops).  ``depends_on`` names previously created
        tasks whose operations must retire first (§5's dataflow model;
        operators within one task always serialize).  Returns the
        operator's result and, when *out* is given, fills that buffer.
        """
        opcode = self._resolve_opcode(op)
        arrays = tuple(self._as_array(x) for x in inputs)
        if not arrays:
            raise RuntimeAPIError(f"{opcode.opname} needs at least one input")
        task_id = self._current_task
        if task_id is None:
            # Implicit task: a bare invoke outside any kernel is its own task.
            task_id = next(self._task_ids)
            self._task_state[task_id] = "pending"
        deps = tuple(int(d) for d in (depends_on or ()))
        for dep in deps:
            if dep not in self._task_state:
                raise TaskError(f"depends_on references unknown task {dep}")
            if dep == task_id:
                raise TaskError("a task cannot depend on itself")
        request = OperationRequest(
            task_id=task_id,
            opcode=opcode,
            inputs=arrays,
            quant=quant or self.default_quant,
            attrs=dict(attrs),
            input_name=self._name_of(inputs[0]),
            output_name=out.name if out is not None else "",
            depends_on=deps,
        )
        sp = self.tracer.begin(
            f"invoke:{opcode.opname}", cat="opq", track="opq", task_id=task_id
        )
        lowered = self.tensorizer.lower(request)
        sp.add_device_seconds(lowered.total_exec_seconds)
        self.tracer.end(sp.set(instructions=lowered.instruction_count))
        # The sync replay reads only the request's task id and
        # dependencies: release the operands (and any float64 copies
        # lowering made of them) now, not at sync.
        request.inputs = ()
        self._pending.append(lowered)
        self._last_task = task_id
        if out is not None:
            out.fill(lowered.result)
        return lowered.result

    @property
    def last_task(self) -> int:
        """Task ID of the most recently invoked operator.

        Convenience for building ``depends_on`` chains with the implicit
        tasks that bare ``invoke_operator`` calls create.
        """
        if self._last_task is None:
            raise RuntimeAPIError("no operator has been invoked yet")
        return self._last_task

    def sync(self) -> SyncReport:
        """``openctpu_sync``: run every pending task to completion.

        Replays the instruction queue on the DES platform and returns the
        resulting timeline with its energy accounting.
        """
        if not self._pending:
            raise RuntimeAPIError("sync with no pending TPU work")
        sp = self.tracer.begin("sync", cat="opq", track="opq", operations=len(self._pending))
        timeline = self.executor.run(self._pending)
        sp.add_device_seconds(timeline.tpu_busy_seconds())
        self.tracer.end(sp.set(makespan_seconds=timeline.makespan))
        energy = self.platform.energy.report(timeline.makespan, timeline.busy_by_unit)
        self._pending.clear()
        for task_id in self._task_state:
            self._task_state[task_id] = "done"
        self._last_report = SyncReport(timeline=timeline, energy=energy)
        return self._last_report

    def wait(self, task_id: int) -> SyncReport:
        """``openctpu_wait``: block until *task_id* completes.

        The simulated runtime resolves all pending work at once, so wait
        triggers a sync when the task is still pending.
        """
        if task_id not in self._task_state:
            raise TaskError(f"unknown task id {task_id}")
        if self._task_state[task_id] == "pending":
            return self.sync()
        assert self._last_report is not None
        return self._last_report

    def host_compute(self, seconds: float, label: str = "host") -> None:
        """Charge a host-CPU phase of the application to the timeline.

        GPTPU applications keep some work on the CPU by design (§6.2.1's
        aggregation, HotSpot3D's inter-layer coupling).  This routes that
        time through the runtime ledger so sync reports cover it.
        """
        if seconds < 0:
            raise RuntimeAPIError("host_compute needs a non-negative duration")
        if seconds == 0:
            return
        task_id = next(self._task_ids)
        self._task_state[task_id] = "pending"
        request = OperationRequest(
            task_id=task_id,
            opcode=Opcode.EXT,  # placeholder opcode; never executed
            inputs=(np.zeros((1, 1)),),
            quant=self.default_quant,
            attrs={"label": label},
        )
        self._pending.append(
            LoweredOperation(request, [], np.zeros((1, 1)), cpu_seconds=float(seconds))
        )

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------

    def tensor(self, data: np.ndarray) -> "TpuTensor":
        """Wrap an array in a :class:`TpuTensor` bound to this context."""
        return TpuTensor(self, np.asarray(data, dtype=np.float64))

    @property
    def pending_operations(self) -> int:
        """Number of lowered operations awaiting sync."""
        return len(self._pending)

    def counter_registry(self) -> CounterRegistry:
        """Unified counter snapshot: lowering stats + device state."""
        registry = CounterRegistry()
        registry.register("tensorizer", tensorizer_counters(self.tensorizer.stats))
        if self.plan_cache is not None:
            registry.register("plan", plan_counters(self.plan_cache))
        for device in self.platform.devices:
            registry.register(f"memory.{device.name}", memory_counters(device.memory))
            registry.register(f"device.{device.name}", device_counters(device))
        return registry

    @staticmethod
    def _resolve_opcode(op: Union[Opcode, str]) -> Opcode:
        if isinstance(op, Opcode):
            return op
        try:
            return _OPCODES_BY_NAME[op]
        except KeyError:
            raise RuntimeAPIError(
                f"unknown operator {op!r}; valid: {sorted(o.opname for o in Opcode)}"
            ) from None

    @staticmethod
    def _as_array(x: ArrayLike) -> np.ndarray:
        if isinstance(x, Buffer):
            return x.require_data()
        return np.asarray(x, dtype=np.float64)

    @staticmethod
    def _name_of(x: ArrayLike) -> str:
        return x.name if isinstance(x, Buffer) else ""


class TpuTensor:
    """Overloaded tensor operators on top of :class:`OpenCtpu` (§5).

    ``a + b``, ``a - b``, ``a * b`` map to the pairwise add/sub/mul
    instructions; ``a @ b`` uses the optimized conv2D GEMM (§7.1.2).
    """

    __array_priority__ = 100  # our operators win over ndarray's

    def __init__(self, ctx: OpenCtpu, data: np.ndarray) -> None:
        self.ctx = ctx
        self.data = np.asarray(data, dtype=np.float64)

    # -- helpers -------------------------------------------------------

    def _coerce(self, other: object) -> np.ndarray:
        if isinstance(other, TpuTensor):
            if other.ctx is not self.ctx:
                raise RuntimeAPIError("cannot mix tensors from different contexts")
            return other.data
        return np.broadcast_to(np.asarray(other, dtype=np.float64), self.data.shape)

    def _binary(self, op: Opcode, other: object) -> "TpuTensor":
        result = self.ctx.invoke_operator(op, self.data, self._coerce(other))
        return TpuTensor(self.ctx, result)

    # -- operators -------------------------------------------------------

    def __add__(self, other: object) -> "TpuTensor":
        return self._binary(Opcode.ADD, other)

    __radd__ = __add__

    def __sub__(self, other: object) -> "TpuTensor":
        return self._binary(Opcode.SUB, other)

    def __mul__(self, other: object) -> "TpuTensor":
        return self._binary(Opcode.MUL, other)

    __rmul__ = __mul__

    def __matmul__(self, other: object) -> "TpuTensor":
        rhs = self._coerce(other)
        result = self.ctx.invoke_operator(Opcode.CONV2D, self.data, rhs, gemm=True)
        return TpuTensor(self.ctx, result)

    def tanh(self) -> "TpuTensor":
        """Elementwise tanh on the device."""
        return TpuTensor(self.ctx, self.ctx.invoke_operator(Opcode.TANH, self.data))

    def relu(self) -> "TpuTensor":
        """Elementwise ReLU on the device."""
        return TpuTensor(self.ctx, self.ctx.invoke_operator(Opcode.RELU, self.data))

    def mean(self) -> float:
        """Matrix mean via the device reduction + CPU aggregation."""
        return float(self.ctx.invoke_operator(Opcode.MEAN, self.data))

    def max(self) -> float:
        """Matrix max via the device reduction + CPU aggregation."""
        return float(self.ctx.invoke_operator(Opcode.MAX, self.data))

    def numpy(self) -> np.ndarray:
        """The tensor's host-side values."""
        return self.data

    @property
    def shape(self) -> tuple:
        """Logical shape."""
        return self.data.shape
