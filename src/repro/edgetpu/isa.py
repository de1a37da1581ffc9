"""The Edge TPU instruction set, as characterized in paper §3.2 (Table 1).

The device exposes eleven CISC instructions.  Each instruction takes up
to two tensor inputs: a *data* tensor (the would-be "inference input")
and, for binary operators, a *model* tensor (the would-be "weights",
delivered in the §3.3 binary model format).  Both are 8-bit quantized.

The NN-inference extension (docs/nn.md) adds three opcodes past the
paper's Table 1: ``POOL`` and ``SOFTMAX`` are real device instructions
(characterized by analogy to the Table 1 reductions/LUT ops), while
``CONV2D_NN`` is a *macro* opcode — a host-level multichannel conv2d
that the Tensorizer lowers onto conv2D-GEMM instructions via im2col.
Macro opcodes never reach a device: constructing an
:class:`Instruction` with one raises, and the wire decoder rejects
their index with a typed format error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from repro.edgetpu.quantize import QuantParams


class Opcode(enum.Enum):
    """Edge TPU opcodes; values use the paper's Table 1 spelling."""

    CONV2D = "conv2D"
    FULLY_CONNECTED = "FullyConnected"
    SUB = "sub"
    ADD = "add"
    MUL = "mul"
    CROP = "crop"
    EXT = "ext"
    MEAN = "mean"
    MAX = "max"
    TANH = "tanh"
    RELU = "ReLu"
    # NN-inference extension opcodes (docs/nn.md) — appended after the
    # eleven Table 1 instructions so existing wire indices stay stable.
    CONV2D_NN = "conv2D_nn"
    POOL = "pool"
    SOFTMAX = "softmax"

    @property
    def opname(self) -> str:
        """Table 1 spelling of the instruction name."""
        return self.value

    @property
    def takes_model(self) -> bool:
        """True for binary instructions whose second operand is a model."""
        return self in _BINARY_OPS

    @property
    def is_pairwise(self) -> bool:
        """Operators combining element pairs from two same-shape inputs."""
        return self in (Opcode.ADD, Opcode.SUB, Opcode.MUL)

    @property
    def is_elementwise_unary(self) -> bool:
        """Operators mapping each element of one input (tanh, ReLu)."""
        return self in (Opcode.TANH, Opcode.RELU)

    @property
    def is_reduction(self) -> bool:
        """Matrix-wise operators producing one value (mean, max)."""
        return self in (Opcode.MEAN, Opcode.MAX)

    @property
    def is_data_movement(self) -> bool:
        """Operators that only rearrange data (crop, ext)."""
        return self in (Opcode.CROP, Opcode.EXT)

    @property
    def is_macro(self) -> bool:
        """Host-level macro operators that lower onto other instructions.

        Macro opcodes exist in the operation-queue vocabulary (so NN
        requests carry first-class opcodes through plan signatures and
        serving) but are never device instructions: the Tensorizer
        expands ``CONV2D_NN`` into §7.1.2 conv2D-GEMM instructions.
        """
        return self is Opcode.CONV2D_NN


_BINARY_OPS = frozenset(
    {Opcode.CONV2D, Opcode.FULLY_CONNECTED, Opcode.ADD, Opcode.SUB, Opcode.MUL}
)


@dataclass
class Instruction:
    """One Edge TPU instruction ready for device execution.

    Attributes
    ----------
    opcode:
        Which of the eleven instructions to run.
    data:
        The quantized int8 data operand.
    data_params:
        Quantization parameters of ``data``.
    model:
        The quantized int8 model operand, or None for unary instructions.
        For conv2D this is the kernel stack; for FullyConnected the
        weight matrix; for pairwise ops the second matrix.
    model_params:
        Quantization parameters of ``model``.
    out_params:
        Requested output quantization (how the device requantizes its
        accumulator before returning results over PCIe).  None lets the
        device derive an exact representable scale (data movement ops).
    attrs:
        Instruction modifiers:

        * ``"stride"``: (sy, sx) for conv2D (paper §7.1.2),
        * ``"crop_box"``: (row0, col0, height, width) for crop,
        * ``"ext_shape"``/``"ext_offset"``: target shape / placement for ext,
        * ``"wide_output"``: return the int32 accumulator instead of a
          requantized int8 tensor (debug/ablation only).
    task_id:
        Runtime task that produced this instruction (scheduler metadata).
    input_key / output_key:
        Identity of the data operand / destination, used by the locality
        scheduling rule (§6.1) and by on-chip caching.
    """

    opcode: Opcode
    data: np.ndarray
    data_params: QuantParams
    model: Optional[np.ndarray] = None
    model_params: Optional[QuantParams] = None
    out_params: Optional[QuantParams] = None
    attrs: Mapping[str, Any] = field(default_factory=dict)
    task_id: int = -1
    input_key: str = ""
    output_key: str = ""

    def __post_init__(self) -> None:
        if self.opcode.is_macro:
            raise ValueError(
                f"{self.opcode.opname} is a macro opcode; it lowers onto "
                "device instructions and cannot be executed directly"
            )
        if self.data.dtype != np.int8:
            raise TypeError(f"instruction data must be int8, got {self.data.dtype}")
        if self.opcode.takes_model:
            if self.model is None or self.model_params is None:
                raise ValueError(f"{self.opcode.opname} requires a model operand")
            if self.model.dtype != np.int8:
                raise TypeError(f"instruction model must be int8, got {self.model.dtype}")
        elif self.model is not None:
            raise ValueError(f"{self.opcode.opname} takes no model operand")

    @property
    def data_bytes(self) -> int:
        """Bytes of the data operand (int8, so == element count)."""
        return int(self.data.size)

    @property
    def model_bytes(self) -> int:
        """Bytes of the model operand's data section (0 if none)."""
        return 0 if self.model is None else int(self.model.size)
