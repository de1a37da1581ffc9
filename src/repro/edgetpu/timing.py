"""Per-instruction latency model, calibrated from the paper's Table 1.

The paper measures each instruction end to end (§3.2, Eqs. 1–2) and
reports OPS (instructions/s) and RPS (result values/s) at the optimal
input shape.  Those two columns are mutually consistent — dividing them
gives the result count of one optimal-shape instruction (e.g. conv2D:
168 240 327 / 10 268.8 ≈ 16 384 = 128², the matrix-unit tile §3.3).

The model charges each instruction the maximum of three terms:

* an **issue floor** ``1 / OPS(op)`` — an instruction cannot complete
  faster than the measured optimal-shape latency (the systolic array's
  pipeline depth and the host-driven CISC dispatch are fixed costs);
* a **result term** ``out_elems / RPS(op)`` — output streaming;
* a **MAC term** ``macs / sustained_macs_per_sec`` — matrix-arithmetic
  throughput; relevant only when kernels are large (the GEMM algorithm's
  √N×√N kernels), calibrated from Fig. 6 (see config.py).

At Table 1's optimal shapes the issue floor binds, so the
characterization harness (benchmarks/bench_table1) recovers Table 1
exactly; at the shapes Tensorizer emits, all three terms matter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import EdgeTPUConfig
from repro.edgetpu.isa import Opcode


@dataclass(frozen=True)
class TimingModel:
    """Latency/transfer model for one Edge TPU."""

    config: EdgeTPUConfig = EdgeTPUConfig()

    # -- instruction latency -------------------------------------------------

    def issue_floor_seconds(self, opcode: Opcode) -> float:
        """Minimum latency of one instruction: 1 / OPS (Table 1)."""
        return 1.0 / self.config.ops(opcode.opname)

    def result_seconds(self, opcode: Opcode, out_elems: int) -> float:
        """Output-streaming term: out_elems / RPS (Table 1)."""
        return out_elems / self.config.rps(opcode.opname)

    def mac_seconds(self, macs: int) -> float:
        """Matrix-arithmetic term: macs / sustained MAC rate."""
        return macs / self.config.sustained_macs_per_sec

    def instruction_seconds(self, opcode: Opcode, out_elems: int, macs: int = 0) -> float:
        """Latency of one instruction producing *out_elems* results."""
        if out_elems < 0 or macs < 0:
            raise ValueError(f"negative work: out_elems={out_elems}, macs={macs}")
        return max(
            self.issue_floor_seconds(opcode),
            self.result_seconds(opcode, out_elems),
            self.mac_seconds(macs),
        )

    def instruction_seconds_array(
        self, opcode: Opcode, out_elems: np.ndarray, macs: np.ndarray
    ) -> np.ndarray:
        """:meth:`instruction_seconds` of many instructions at once: the
        same IEEE divisions and maximum, elementwise."""
        out_elems, macs = np.asarray(out_elems), np.asarray(macs)
        if (out_elems < 0).any() or (macs < 0).any():
            raise ValueError("negative work in an instruction batch")
        result = out_elems / self.config.rps(opcode.opname)
        return np.maximum(
            np.maximum(self.issue_floor_seconds(opcode), result),
            macs / self.config.sustained_macs_per_sec,
        )

    def optimal_out_elems(self, opcode: Opcode) -> int:
        """Results per instruction at the op's optimal shape: RPS / OPS."""
        return max(1, round(self.config.rps(opcode.opname) / self.config.ops(opcode.opname)))

    # -- data movement --------------------------------------------------------

    def transfer_seconds(self, nbytes: int) -> float:
        """Host↔device DMA latency (§3.2: "does not vary among different
        types of instructions, but simply correlates with data size";
        1 MB ≈ 6 ms)."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.config.transfer_setup_seconds + nbytes * self.config.transfer_seconds_per_byte

    # -- model creation --------------------------------------------------------

    def tflite_compile_seconds(self, elems: int) -> float:
        """Stock Python TFLite model-creation latency (§3.3: 2.7 s / 2K×2K).

        Modeled as a fixed interpreter-startup cost plus a per-element
        rate fit through the paper's single published point.
        """
        startup = 0.3
        rate = (self.config.tflite_compile_seconds_2k - startup) / (2048 * 2048)
        return startup + elems * rate

    def tensorizer_build_seconds(self, elems: int) -> float:
        """C-based Tensorizer model-creation latency (§6.2.3: 1.8 ms / 2K×2K)."""
        floor = 2e-6
        rate = self.config.tensorizer_build_seconds_2k / (2048 * 2048)
        return max(floor, elems * rate)
