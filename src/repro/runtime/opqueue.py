"""Queue entry types for the runtime (paper §6.1, Fig. 4).

The front-end **task operation queue (OPQ)** holds
:class:`OperationRequest` entries — "a task ID, the requested TPU
operation, the input and output locations, and parameters like the
quantization method".  Tensorizer turns each into a
:class:`LoweredOperation` whose :class:`LoweredInstr` items populate the
back-end **instruction queue (IQ)** consumed by the scheduler.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, List, Mapping, Optional, Tuple

import numpy as np

from repro.edgetpu.isa import Opcode

if TYPE_CHECKING:  # no runtime dependency on the integrity package
    from repro.integrity.plan import IntegrityPlan


class QuantMode(enum.Enum):
    """Quantization method flag passed to ``openctpu_invoke_operator``.

    * ``SCALE`` — the paper's default: per-tile input scales, output
      scale from the §6.2.2 formulas.
    * ``GLOBAL`` — one input scale derived from the whole dataset's
      range (ablation: per-tile vs global calibration).
    """

    SCALE = "scale"
    GLOBAL = "global"


@dataclass
class OperationRequest:
    """One OPQ entry: a programmer-requested tensor operation."""

    task_id: int
    opcode: Opcode
    inputs: Tuple[np.ndarray, ...]
    quant: QuantMode = QuantMode.SCALE
    attrs: Mapping[str, Any] = field(default_factory=dict)
    #: Stable identity of the primary input, for locality scheduling.
    input_name: str = ""
    #: Destination identity (the paper's "output locations").
    output_name: str = ""
    #: Task IDs whose operations must complete before this one starts.
    #: §5's dataflow model: operators within one task serialize
    #: implicitly; cross-task ordering is expressed here.
    depends_on: Tuple[int, ...] = ()
    #: Originating client for multi-tenant serving (:mod:`repro.serve`);
    #: the admission controller fair-queues across distinct tenants.
    #: Empty for single-caller batch use (the Table 2 API).
    tenant: str = ""


@dataclass(init=False, eq=False)
class LoweredInstr(tuple):
    """One IQ entry: a device instruction with its modeled costs.

    Functional execution already happened during lowering (results are
    deterministic); the executor replays costs on the DES to obtain the
    parallel timeline.

    Immutable, hashable, equal by fields and validated, and a dataclass
    (``dataclasses.replace``/``fields``/``asdict`` work), but its fields
    live in a tuple: a frozen dataclass sets each of its twelve fields
    through ``object.__setattr__``, which made one instruction about
    three times as costly to build (2.4 against 0.8 us), and a batch
    pass builds thousands.
    """

    __slots__ = ()

    opcode: Opcode
    task_id: int
    #: Instructions with equal non-empty group keys share input data and
    #: quantization and differ only in outputs — the §6.1 locality rule
    #: sends them to one device.
    group_key: str
    #: On-chip residency key for the data operand; instructions with the
    #: same key reuse the transferred chunk ("" disables caching).
    cache_key: str
    #: Bytes of the (quantized) data operand to DMA if not resident.
    data_bytes: int
    #: Bytes of the model blob to DMA (§3.3 format, includes header).
    model_bytes: int
    #: Host-side model-build time (Tensorizer fast path or TFLite).
    model_build_seconds: float
    #: Device execution latency of ONE instruction (Table 1-calibrated).
    exec_seconds: float
    #: Bytes of results returned to the host.
    out_bytes: int
    label: str = ""
    #: Residency key for the model operand ("" = stream every time).
    #: PageRank's adjacency tiles, for example, stay on chip across
    #: power iterations when they fit.
    model_cache_key: str = ""
    #: Burst factor: this entry stands for *count* identical back-to-back
    #: instructions on one device (kept as one IQ entry so multi-million
    #: instruction streams replay efficiently).  ``data_bytes``,
    #: ``model_bytes`` and ``out_bytes`` are totals for the burst;
    #: ``exec_seconds`` is per instruction.
    count: int = 1

    def __new__(
        cls,
        opcode: Opcode,
        task_id: int,
        group_key: str,
        cache_key: str,
        data_bytes: int,
        model_bytes: int,
        model_build_seconds: float,
        exec_seconds: float,
        out_bytes: int,
        label: str = "",
        model_cache_key: str = "",
        count: int = 1,
    ) -> "LoweredInstr":
        if (
            data_bytes < 0 or model_bytes < 0 or out_bytes < 0
            or exec_seconds < 0 or model_build_seconds < 0 or count < 1
        ):
            for name, value in (
                ("data_bytes", data_bytes), ("model_bytes", model_bytes), ("out_bytes", out_bytes)
            ):
                if value < 0:
                    raise ValueError(f"{name} must be >= 0")
            if exec_seconds < 0 or model_build_seconds < 0:
                raise ValueError("negative simulated time")
            raise ValueError(f"count must be >= 1, got {count}")
        return tuple.__new__(cls, (
            opcode, task_id, group_key, cache_key, data_bytes, model_bytes,
            model_build_seconds, exec_seconds, out_bytes, label, model_cache_key, count,
        ))

    def __getnewargs__(self) -> tuple:
        return tuple(self)  # pickle and copy rebuild through __new__

    @property
    def burst_exec_seconds(self) -> float:
        """Total device time for the whole burst."""
        return self.exec_seconds * self.count


# Each field reads its tuple slot through a named tuple's C field
# getter (about 40 ns; a ``property(itemgetter(i))`` takes about 150 ns);
# assigning a field raises AttributeError.
_FieldGetters = namedtuple("_FieldGetters", [f.name for f in fields(LoweredInstr)])
for _name in _FieldGetters._fields:
    setattr(LoweredInstr, _name, getattr(_FieldGetters, _name))
del _name


@dataclass
class LoweredOperation:
    """A fully lowered OPQ entry: instructions plus the functional result."""

    request: OperationRequest
    instrs: List[LoweredInstr]
    #: Exact functional result (float64), already dequantized/aggregated.
    result: np.ndarray
    #: Host CPU time for data transformation + aggregation (§6.2.1).
    cpu_seconds: float = 0.0
    #: Total output values clipped during device requantization.
    saturated: int = 0
    #: SDC-defense plan (expected tiles + checksums) built when the
    #: Tensorizer runs with ``options.integrity != "off"``; None
    #: otherwise — the execution layer then skips verification.
    integrity: Optional["IntegrityPlan"] = None

    @property
    def instruction_count(self) -> int:
        """Number of device instructions this operation lowered to."""
        return sum(i.count for i in self.instrs)

    @property
    def total_exec_seconds(self) -> float:
        """Sum of device execution latencies (no overlap)."""
        return sum(i.burst_exec_seconds for i in self.instrs)
