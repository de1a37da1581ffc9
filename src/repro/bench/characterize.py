"""The §3.2 characterization methodology, run against the simulated device.

The paper measures each instruction's OPS and RPS with a two-phase
timing loop (Eqs. 1–3): execute the operator 10 000 times end to end,
then 20 000 times, and difference the totals so fixed startup costs
cancel.  We run exactly that loop against :class:`EdgeTPUDevice` — the
loop *measures*, it never reads the timing model's constants directly —
so the produced table doubles as a validation that the device model is
calibrated (benchmarks/bench_table1 compares the output against the
paper's Table 1 values).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import TABLE1_OPS, TABLE1_RPS, EdgeTPUConfig
from repro.edgetpu.device import EdgeTPUDevice
from repro.edgetpu.isa import Instruction, Opcode
from repro.edgetpu.quantize import QuantParams
from repro.edgetpu.timing import TimingModel

#: Descriptions from Table 1, reproduced for the report.
OP_DESCRIPTIONS: Dict[str, str] = {
    "conv2D": "2D Convolution on a matrix",
    "FullyConnected": "Input vector multiplies a weight matrix",
    "sub": "Pair-wise subtraction on two matrices",
    "add": "Pair-wise addition on two matrices",
    "mul": "Pair-wise multiplication on two matrices",
    "crop": "Remove all unwanted elements outside of a sub-matrix",
    "ext": "Pad a matrix to the target dimensionality",
    "mean": "Count the average value of all elements in the matrix",
    "max": "Find the maximum value within a matrix",
    "tanh": "Perform tanh function on a matrix pair-wisely",
    "ReLu": "Leave only non-zero values on a matrix pair-wisely",
    # NN-inference extension entries (docs/nn.md) — not in the paper's
    # Table 1; conv2D_nn is a host macro and is never characterized.
    "conv2D_nn": "Multichannel NCHW convolution (host macro over conv2D-GEMM)",
    "pool": "Windowed max/average pooling over a matrix",
    "softmax": "Row-wise max-subtracted softmax through an exp LUT",
}


@dataclass(frozen=True)
class CharacterizationRow:
    """One measured row of Table 1."""

    opname: str
    ops: float
    rps: float
    paper_ops: float
    paper_rps: float
    description: str

    @property
    def ops_error_percent(self) -> float:
        """Relative deviation of measured OPS from the paper's value."""
        return abs(self.ops - self.paper_ops) / self.paper_ops * 100.0

    @property
    def rps_error_percent(self) -> float:
        """Relative deviation of measured RPS from the paper's value."""
        return abs(self.rps - self.paper_rps) / self.paper_rps * 100.0


def _optimal_instruction(op: Opcode, timing: TimingModel) -> Instruction:
    """Build an optimal-shape instruction for *op* (§3.2's methodology)."""
    params = QuantParams(scale=1.0)
    out_params = QuantParams(scale=1.0)
    rng = np.random.default_rng(0)

    def mat(rows: int, cols: int) -> np.ndarray:
        return rng.integers(-4, 5, size=(rows, cols)).astype(np.int8)

    if op is Opcode.CONV2D:
        # 128x128 output tile with a small 3x3 kernel.
        return Instruction(op, mat(130, 130), params, model=mat(3, 3),
                           model_params=params, out_params=out_params)
    if op is Opcode.FULLY_CONNECTED:
        vec = rng.integers(-4, 5, size=128).astype(np.int8)
        return Instruction(op, vec, params, model=mat(128, 128),
                           model_params=params, out_params=out_params)
    if op.is_pairwise:
        side = int(round(np.sqrt(timing.optimal_out_elems(op))))
        return Instruction(op, mat(side, side), params, model=mat(side, side),
                           model_params=params, out_params=out_params)
    if op.is_reduction:
        return Instruction(op, mat(64, 64), params)
    if op is Opcode.CROP:
        side = int(round(np.sqrt(timing.optimal_out_elems(op))))
        data = mat(side + 2, side + 2)
        return Instruction(op, data, params, attrs={"crop_box": (1, 1, side, side)})
    if op is Opcode.EXT:
        side = int(round(np.sqrt(timing.optimal_out_elems(op))))
        return Instruction(op, mat(side - 2, side - 2), params,
                           attrs={"ext_shape": (side, side), "ext_offset": (1, 1)})
    if op is Opcode.POOL:
        # 2x2/stride-2 max pooling halves each side, so a doubled-side
        # input lands exactly on the optimal result count.
        side = 2 * int(round(np.sqrt(timing.optimal_out_elems(op))))
        return Instruction(op, mat(side, side), params,
                           attrs={"window": (2, 2), "stride": (2, 2), "kind": "max"})
    # tanh / ReLu / softmax: a square matrix of the optimal result count.
    side = int(round(np.sqrt(timing.optimal_out_elems(op))))
    return Instruction(op, mat(side, side), params)


def _timed_batch(device: EdgeTPUDevice, instr: Instruction, repeats: int) -> Tuple[float, int]:
    """End-to-end latency and result count of *repeats* executions.

    One functional execution provides the per-instruction latency and
    result count; the batch totals follow (the device is deterministic,
    so this equals looping without spending wall-clock time).
    """
    result = device.execute(instr)
    return repeats * result.seconds, repeats * result.out_elems


def characterize_op(
    op: Opcode,
    device: Optional[EdgeTPUDevice] = None,
    n1: int = 10_000,
    n2: int = 20_000,
) -> CharacterizationRow:
    """Measure one instruction with the paper's two-phase loop."""
    device = device or EdgeTPUDevice("characterize")
    timing = device.timing
    instr = _optimal_instruction(op, timing)
    # Phase 1 (Eq. 1/2 numerators' subtrahends): n1 executions plus the
    # input transfer; Phase 2: n2 executions.  Differencing cancels the
    # one-time transfer exactly as in the paper.
    transfer = timing.transfer_seconds(instr.data_bytes + instr.model_bytes)
    t_batch1, r_batch1 = _timed_batch(device, instr, n1)
    t1, r1 = transfer + t_batch1, r_batch1
    t_batch2, r_batch2 = _timed_batch(device, instr, n2)
    t2, r2 = transfer + t_batch2, r_batch2
    ops = (n2 - n1) / (t2 - t1)  # Eq. 1
    rps = (r2 - r1) / (t2 - t1)  # Eq. 2
    return CharacterizationRow(
        opname=op.opname,
        ops=ops,
        rps=rps,
        paper_ops=TABLE1_OPS[op.opname],
        paper_rps=TABLE1_RPS[op.opname],
        description=OP_DESCRIPTIONS[op.opname],
    )


#: Device instructions of the NN-inference extension (docs/nn.md).  They
#: are not in the paper's Table 1; :func:`characterize_extensions`
#: measures them against their calibrated rates.  Macro opcodes
#: (``conv2D_nn``) lower onto other instructions on the host and never
#: execute on a device, so neither table has them.
EXTENSION_OPCODES = (Opcode.POOL, Opcode.SOFTMAX)


def characterize_all(config: Optional[EdgeTPUConfig] = None) -> List[CharacterizationRow]:
    """Measure the paper's eleven instructions — the full Table 1."""
    device = EdgeTPUDevice("characterize", config)
    return [
        characterize_op(op, device)
        for op in Opcode
        if not op.is_macro and op not in EXTENSION_OPCODES
    ]


def characterize_extensions(config: Optional[EdgeTPUConfig] = None) -> List[CharacterizationRow]:
    """Measure the NN extension's instructions (pool, softmax) the same way."""
    device = EdgeTPUDevice("characterize", config)
    return [characterize_op(op, device) for op in EXTENSION_OPCODES]


def measure_data_exchange(config: Optional[EdgeTPUConfig] = None) -> List[Tuple[int, float]]:
    """§3.2's data-exchange measurement: (bytes, seconds) per size.

    The paper reports ≈6 ms for 1 MB and ≈48 ms for 8 MB.
    """
    timing = TimingModel(config or EdgeTPUConfig())
    sizes = [256 * 1024, 1024 * 1024, 2 * 1024 * 1024, 4 * 1024 * 1024, 8 * 1024 * 1024]
    return [(size, timing.transfer_seconds(size)) for size in sizes]
