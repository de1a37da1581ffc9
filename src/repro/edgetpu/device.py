"""The simulated Edge TPU device.

Executes instructions *functionally* (exact integer math via
:mod:`repro.edgetpu.functional`), requantizes the accumulator to int8
the way the real device returns results over PCIe, and reports the
simulated latency from the Table 1-calibrated timing model.

The device is deliberately passive: it does not advance any clock.  The
runtime executor replays each sync's timeline on the platform clock and
charges device busy time there, which is what lets multiple TPUs, DMA,
and Tensorizer overlap (§6.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import EdgeTPUConfig
from repro.edgetpu import functional
from repro.edgetpu.isa import Instruction, Opcode
from repro.edgetpu.memory import OnChipMemory
from repro.edgetpu.quantize import QMAX, QMIN, QuantParams
from repro.edgetpu.timing import TimingModel
from repro.errors import DeviceFailure


#: Fault modes an injector can model.  ``"fail-stop"`` raises
#: :class:`~repro.errors.DeviceFailure` — the device dies loudly.  The
#: other three are *silent data corruption* (SDC) modes that fire
#: without raising, mangling the int8 bytes on the PCIe return path the
#: way a no-ECC consumer device can (§3/§6 trust gap):
#:
#: * ``"bitflip"`` — XOR random high bits of random output elements;
#: * ``"stuck"``   — replay the previous result block (a stuck DMA
#:   buffer returning stale data);
#: * ``"skew"``    — rescale the quantized outputs by a constant factor
#:   (the device applying the wrong requantization scale).
FAULT_MODES = ("fail-stop", "bitflip", "stuck", "skew")


class FaultInjector:
    """Deterministic (seeded) fault plan for one simulated device.

    Arms after the device has retired *after_instructions* further
    instructions.  Past that point a ``"fail-stop"`` plan raises
    :class:`~repro.errors.DeviceFailure` from the progress hook
    (:meth:`observe`), while a corruption plan stays silent there and
    instead mangles output blocks on the transmit path
    (:meth:`corrupt`) — until the budgeted number of firings is spent.
    """

    def __init__(
        self,
        after_instructions: int = 0,
        failures: int = -1,
        reason: str = "injected fault",
        *,
        mode: str = "fail-stop",
        seed: int = 0,
        flips: int = 1,
        min_bit: int = 5,
        skew: float = 1.25,
    ) -> None:
        if after_instructions < 0:
            raise ValueError("after_instructions must be >= 0")
        if mode not in FAULT_MODES:
            raise ValueError(f"mode must be one of {FAULT_MODES}, got {mode!r}")
        if flips < 1:
            raise ValueError("flips must be >= 1")
        if not 0 <= min_bit <= 7:
            raise ValueError("min_bit must be in [0, 7]")
        self.after_instructions = int(after_instructions)
        self.failures = int(failures)
        self.reason = reason
        self.mode = mode
        #: Elements hit per bitflip firing.
        self.flips = int(flips)
        #: Lowest bit position a flip may target.  The default (5) keeps
        #: every flip at least 32 quanta — far above the ABFT tolerance
        #: of half a quantum per summed element, so seeded campaigns can
        #: assert 100% detection.
        self.min_bit = int(min_bit)
        #: Multiplier applied to quantized outputs in ``"skew"`` mode.
        self.skew = float(skew)
        self._rng = np.random.default_rng(seed)
        self._seen = 0
        #: Replay source for ``"stuck"`` mode: the last block that went
        #: over the wire cleanly.
        self._last_block: Optional[np.ndarray] = None
        #: How many times this injector has actually fired.
        self.fired = 0

    @property
    def armed(self) -> bool:
        """True while the plan can still fire.

        ``failures`` is the remaining firing budget: a positive count is
        a transient plan that disarms after firing that many times, ``0``
        is a spent plan, and any negative value (the ``failures=-1``
        default) is an **infinite** budget — the injector stays armed
        forever, modeling a permanently dead (fail-stop) or permanently
        corrupting (SDC) device.
        """
        return self.failures != 0

    @property
    def corrupting(self) -> bool:
        """True for the silent-corruption modes (never raises)."""
        return self.mode != "fail-stop"

    def observe(self, device_name: str, instructions: int = 1) -> None:
        """Account *instructions* of progress against the plan.

        A ``"fail-stop"`` plan raises once it trips; corruption plans
        never raise here — they fire later, on the transmit path
        (:meth:`corrupt`), drawing on the progress recorded here.
        """
        if not self.armed:
            return
        self._seen += int(instructions)
        if self._seen <= self.after_instructions:
            return
        if self.corrupting:
            return
        if self.failures > 0:
            self.failures -= 1
        self.fired += 1
        raise DeviceFailure(
            f"{device_name}: {self.reason} (after {self._seen} instructions)",
            device=device_name,
        )

    def corrupt(self, device_name: str, block: np.ndarray) -> np.ndarray:
        """Return the bytes the host receives for output *block*.

        Fires — returns a corrupted copy, spending one unit of the
        failure budget — when a corruption plan has tripped and budget
        remains; otherwise returns *block* unchanged (and remembers it
        as the ``"stuck"`` replay source).  Never raises, and never
        advances instruction progress: that is :meth:`observe`'s job
        (single fault-accounting owner).
        """
        if not (self.corrupting and self.armed and self._seen > self.after_instructions):
            self._last_block = np.array(block, copy=True)
            return block
        if self.failures > 0:
            self.failures -= 1
        self.fired += 1
        out = np.array(block, copy=True)
        stale = self._last_block
        if self.mode == "stuck" and stale is not None and stale.shape == out.shape:
            return stale.astype(out.dtype, copy=True)
        if self.mode == "skew":
            skewed = np.rint(out.astype(np.float64) * self.skew)
            return np.clip(skewed, QMIN, QMAX).astype(out.dtype)
        # "bitflip", and the fallback for "stuck" with no replay source.
        flat = out.reshape(-1).view(np.uint8)
        n = min(self.flips, flat.size)
        idx = self._rng.choice(flat.size, size=n, replace=False)
        bits = self._rng.integers(self.min_bit, 8, size=n)
        flat[idx] ^= (np.uint8(1) << bits.astype(np.uint8))
        return out


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of executing one instruction on the device."""

    #: Output tensor: int8 (normal path) or int64 (``wide_output`` debug path).
    output: np.ndarray
    #: Quantization of ``output`` (raw ≈ output / params.scale).
    out_params: QuantParams
    #: Simulated device latency in seconds.
    seconds: float
    #: Multiply-accumulates performed.
    macs: int
    #: Number of output values clipped during requantization.  Nonzero
    #: saturation means the chosen output scale was too aggressive.
    saturated: int

    @property
    def out_elems(self) -> int:
        """Number of result values produced."""
        return int(self.output.size)

    def dequantized(self) -> np.ndarray:
        """Output in raw (float64) units."""
        return np.asarray(self.output, dtype=np.float64) / self.out_params.scale


class EdgeTPUDevice:
    """One simulated M.2 Edge TPU."""

    def __init__(
        self,
        name: str = "tpu0",
        config: Optional[EdgeTPUConfig] = None,
        timing: Optional[TimingModel] = None,
    ) -> None:
        self.name = name
        self.config = config or EdgeTPUConfig()
        self.timing = timing or TimingModel(self.config)
        self.memory = OnChipMemory(self.config.onchip_memory_bytes)
        #: Lifetime counters, used by the energy model and reports.
        self.instructions_executed = 0
        self.busy_seconds = 0.0
        #: Lifetime count of output values clipped during requantization
        #: — the quantization-health signal an SDC detector must be able
        #: to distinguish from corruption (surfaced via the telemetry
        #: CounterRegistry and ``repro profile``).
        self.saturated_values = 0
        #: Optional fault plan consulted before work is charged to the
        #: device (serving-layer fault tolerance; see :meth:`inject_fault`).
        self.fault_injector: Optional[FaultInjector] = None

    def inject_fault(
        self,
        after_instructions: int = 0,
        failures: int = -1,
        reason: str = "injected fault",
        **fault_kwargs,
    ) -> FaultInjector:
        """Arm a fault plan on this device and return it.

        ``failures=-1`` (default) models a permanent fault — the plan
        stays armed forever; a positive count models transient faults
        that clear after firing that many times.  Keyword arguments
        (``mode``, ``seed``, ``flips``, ``min_bit``, ``skew``) select and
        parameterize the silent-corruption modes; the default mode is
        ``"fail-stop"``.  See :class:`FaultInjector`.
        """
        self.fault_injector = FaultInjector(
            after_instructions, failures, reason, **fault_kwargs
        )
        return self.fault_injector

    def check_fault(self, instructions: int = 1) -> None:
        """Fault hook: charge *instructions* of progress to the fault plan.

        Raises :class:`~repro.errors.DeviceFailure` when a fail-stop plan
        trips; no-op when no injector is armed.

        Ownership: exactly one layer charges any given instruction to
        the plan.  Direct execution (:meth:`execute` /
        :meth:`execute_packet`) charges one instruction per call; the
        serving dispatcher charges a whole dispatch group up front, and
        the transmit path (:meth:`transmit`) charges **nothing** — the
        group it serves was already charged at dispatch.  Charging the
        same instructions at two layers would make injectors trip early;
        ``tests/edgetpu/test_device_faults.py::TestFaultAccounting`` pins
        the trip points.
        """
        if self.fault_injector is not None:
            self.fault_injector.observe(self.name, instructions)

    @property
    def healthy(self) -> bool:
        """True when no armed fault plan remains on this device.

        The device is *unhealthy* while an injector is armed — it can
        still fire (transient budget unspent) or will fire forever
        (``failures=-1``); this covers silent-corruption plans as well
        as fail-stop ones.  Once a transient plan's budget is spent, the
        device reports healthy again.
        """
        return self.fault_injector is None or not self.fault_injector.armed

    def transmit(self, block: np.ndarray) -> np.ndarray:
        """Model the PCIe return path for a block of quantized results.

        Returns the bytes the host actually receives.  A clean device
        returns *block* unchanged (same object — no copy on the hot
        path); an armed corruption injector returns a mangled copy
        *without raising*, which is exactly what makes the fault silent.
        Transmission never charges the fault plan (see
        :meth:`check_fault` for the ownership rule).
        """
        inj = self.fault_injector
        if inj is None or not inj.corrupting:
            return block
        return inj.corrupt(self.name, block)

    def execute(self, instr: Instruction) -> ExecutionResult:
        """Run one instruction; returns requantized output and latency."""
        self.check_fault(1)
        result = functional.execute(instr)
        macs = result.macs

        if instr.attrs.get("wide_output", False):
            output: np.ndarray = result.acc
            out_params = QuantParams(scale=result.acc_scale)
            saturated = 0
        else:
            out_params = self._output_params(instr, result)
            output, saturated = self._requantize(result.acc, result.acc_scale, out_params)
            # Corrupted int8 results flow through the real pipeline: an
            # armed SDC injector mangles the bytes here, silently.
            output = self.transmit(output)

        seconds = self.timing.instruction_seconds(instr.opcode, int(output.size), macs)
        self.instructions_executed += 1
        self.busy_seconds += seconds
        self.saturated_values += saturated
        return ExecutionResult(
            output=output,
            out_params=out_params,
            seconds=seconds,
            macs=macs,
            saturated=saturated,
        )

    def execute_packet(self, blob: bytes, kernel_shape=None) -> ExecutionResult:
        """Decode and run one wire-format instruction packet.

        The end-to-end path a real host driver takes: bytes over PCIe in,
        requantized int8 results out.  See :mod:`repro.edgetpu.encoding`.
        """
        from repro.edgetpu.encoding import decode_instruction

        return self.execute(decode_instruction(blob, kernel_shape=kernel_shape))

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _output_params(instr: Instruction, result: functional.OpResult) -> QuantParams:
        """Pick the output scale: the caller's request, or a lossless default.

        Operators whose accumulator is already int8-ranged (crop, ext,
        ReLu, max, tanh, softmax, and mean after averaging) requantize
        losslessly at the accumulator scale; arithmetic operators require
        the caller (the Tensorizer) to supply an output scale per §6.2.2.
        """
        if instr.out_params is not None:
            return instr.out_params
        op = instr.opcode
        if op.is_data_movement or op in (
            Opcode.RELU,
            Opcode.MAX,
            Opcode.TANH,
            Opcode.SOFTMAX,
        ):
            return QuantParams(scale=result.acc_scale)
        if op in (Opcode.MEAN, Opcode.POOL):
            # acc = raw_mean * (scale * size); returning at the input scale
            # keeps the mean within int8 range (it cannot exceed the max).
            # Pooling is the windowed analogue: max pooling's accumulator
            # is already at the input scale (rescale is exactly 1), and an
            # average can never exceed the window maximum.
            return QuantParams(scale=instr.data_params.scale)
        raise ValueError(
            f"{op.opname} needs explicit output quantization parameters (§6.2.2)"
        )

    @staticmethod
    def _requantize(
        acc: np.ndarray, acc_scale: float, out_params: QuantParams
    ) -> tuple[np.ndarray, int]:
        """Rescale the wide accumulator into int8 at the output scale."""
        rescale = out_params.scale / acc_scale
        if rescale == 1.0 and acc.dtype.kind == "i" and acc.size:
            # A lossless operator (crop, ext...) at its input scale: the
            # rescale, rint and clip below leave int8-ranged integers as
            # they are, so an in-range accumulator is its own result.
            if acc.min() >= QMIN and acc.max() <= QMAX:
                return acc.astype(np.int8), 0
        q = np.rint(acc * rescale)
        saturated = int(np.count_nonzero((q < QMIN) | (q > QMAX)))
        return np.clip(q, QMIN, QMAX).astype(np.int8), saturated
