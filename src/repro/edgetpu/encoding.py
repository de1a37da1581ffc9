"""Binary encoding of the host→device instruction stream.

The Edge TPU has no instruction cache: the host "issue[s] instructions
through the system interconnect" as CISC packets (§2.1).  This module
defines the wire format our simulated device accepts, in the same spirit
as the §3.3 model format: a fixed header, a quantized data operand, and
— for binary instructions — an embedded §3.3 model blob.

Layout (little-endian, like everything the device consumes):

====================  ======  =====================================
field                 bytes   meaning
====================  ======  =====================================
magic ``GPTI``        4       packet tag
version               u16     wire-format version
opcode                u8      index into :class:`Opcode` order
flags                 u8      bit 0: wide_output
data_rows             u32     data operand rows (1 for vectors)
data_cols             u32     data operand columns
data_scale            f32     quantization factor of the data operand
out_scale             f32     requested output quantization (0 = none)
attr[4]               4×i32   stride / crop box / ext shape+offset / pool geometry
data section          r×c     int8 payload, row-major
model section         var     §3.3 model blob (binary opcodes only)
====================  ======  =====================================
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

import numpy as np

from repro.errors import ModelFormatError
from repro.edgetpu.isa import Instruction, Opcode
from repro.edgetpu.model_format import parse_model, serialize_model
from repro.edgetpu.quantize import QuantParams

MAGIC = b"GPTI"
WIRE_VERSION = 1
_HEADER = struct.Struct("<4sHBBIIffiiii")
_OPCODES = list(Opcode)
_FLAG_WIDE_OUTPUT = 0x01
#: Pool-kind wire codes, in order (attr word 2).
_POOL_KINDS = ("max", "avg")


def _attrs_to_words(instr: Instruction) -> Tuple[int, int, int, int]:
    op = instr.opcode
    if op is Opcode.CONV2D:
        sy, sx = instr.attrs.get("stride", (1, 1))
        return int(sy), int(sx), 0, 0
    if op is Opcode.CROP:
        r0, c0, h, w = instr.attrs["crop_box"]
        return int(r0), int(c0), int(h), int(w)
    if op is Opcode.EXT:
        oh, ow = instr.attrs["ext_shape"]
        r0, c0 = instr.attrs.get("ext_offset", (0, 0))
        return int(oh), int(ow), int(r0), int(c0)
    if op is Opcode.POOL:
        wh, ww = instr.attrs.get("window", (2, 2))
        sy, sx = instr.attrs.get("stride", (wh, ww))
        kind = instr.attrs.get("kind", "max")
        if kind not in _POOL_KINDS:
            raise ModelFormatError(f"unknown pool kind {kind!r}")
        return (
            (int(wh) << 16) | int(ww),
            (int(sy) << 16) | int(sx),
            _POOL_KINDS.index(kind),
            0,
        )
    return 0, 0, 0, 0


def _attrs_from_words(op: Opcode, words: Tuple[int, int, int, int]) -> dict:
    if op is Opcode.CONV2D:
        sy, sx = words[0], words[1]
        return {"stride": (sy, sx)} if (sy, sx) != (1, 1) else {}
    if op is Opcode.CROP:
        return {"crop_box": tuple(words)}
    if op is Opcode.EXT:
        return {"ext_shape": (words[0], words[1]), "ext_offset": (words[2], words[3])}
    if op is Opcode.POOL:
        if words == (0, 0, 0, 0):
            return {}
        wh, ww = words[0] >> 16, words[0] & 0xFFFF
        sy, sx = words[1] >> 16, words[1] & 0xFFFF
        if min(wh, ww, sy, sx) < 1:
            raise ModelFormatError(f"invalid pool geometry words {words}")
        if not 0 <= words[2] < len(_POOL_KINDS):
            raise ModelFormatError(f"unknown pool kind code {words[2]}")
        return {
            "window": (wh, ww),
            "stride": (sy, sx),
            "kind": _POOL_KINDS[words[2]],
        }
    return {}


def encode_instruction(instr: Instruction) -> bytes:
    """Serialize one :class:`Instruction` into its wire packet."""
    data = instr.data
    rows, cols = (1, data.shape[0]) if data.ndim == 1 else data.shape
    flags = _FLAG_WIDE_OUTPUT if instr.attrs.get("wide_output", False) else 0
    out_scale = instr.out_params.scale if instr.out_params is not None else 0.0
    header = _HEADER.pack(
        MAGIC,
        WIRE_VERSION,
        _OPCODES.index(instr.opcode),
        flags,
        rows,
        cols,
        instr.data_params.scale,
        out_scale,
        *_attrs_to_words(instr),
    )
    payload = np.ascontiguousarray(data).tobytes()
    blob = header + payload
    if instr.opcode.takes_model:
        assert instr.model is not None and instr.model_params is not None
        model = instr.model
        if model.ndim == 3:
            # Kernel stacks travel flattened; the kernel height rides in
            # the model's row count (nk*kh rows of kw columns).
            model = model.reshape(model.shape[0] * model.shape[1], model.shape[2])
        blob += serialize_model(model, instr.model_params)
    return blob


def decode_instruction(blob: bytes, kernel_shape: Optional[Tuple[int, ...]] = None) -> Instruction:
    """Parse a wire packet back into an :class:`Instruction`.

    ``kernel_shape`` restores a 3-D kernel stack's shape for conv2D
    packets whose model was flattened in transit.

    Raises
    ------
    ModelFormatError
        On any structural violation — bad magic, truncation, unknown
        opcode, or an embedded model that fails its own validation.
    """
    if len(blob) < _HEADER.size:
        raise ModelFormatError(
            f"packet too short ({len(blob)} bytes < header {_HEADER.size})"
        )
    (magic, version, op_index, flags, rows, cols, data_scale, out_scale, a0, a1, a2, a3) = (
        _HEADER.unpack_from(blob, 0)
    )
    if magic != MAGIC:
        raise ModelFormatError("bad magic: not an instruction packet")
    if version != WIRE_VERSION:
        raise ModelFormatError(f"unsupported wire version {version}")
    if not 0 <= op_index < len(_OPCODES):
        raise ModelFormatError(f"unknown opcode index {op_index}")
    opcode = _OPCODES[op_index]
    if opcode.is_macro:
        raise ModelFormatError(
            f"{opcode.opname} is a macro opcode and has no wire form"
        )
    if rows < 1 or cols < 1:
        raise ModelFormatError(f"invalid data dimensions {rows}x{cols}")
    n_data = rows * cols
    data_end = _HEADER.size + n_data
    if len(blob) < data_end:
        raise ModelFormatError("packet truncated inside the data section")
    data = np.frombuffer(blob, dtype=np.int8, count=n_data, offset=_HEADER.size).copy()
    if opcode is Opcode.FULLY_CONNECTED:
        if rows != 1:
            raise ModelFormatError("FullyConnected data operand must be a vector")
        data = data.reshape(cols)
    else:
        data = data.reshape(rows, cols)

    model = None
    model_params = None
    if opcode.takes_model:
        parsed = parse_model(blob[data_end:])
        model = parsed.data
        model_params = parsed.params
        if kernel_shape is not None:
            model = model.reshape(kernel_shape)
    elif len(blob) != data_end:
        raise ModelFormatError(
            f"{opcode.opname} packet has {len(blob) - data_end} trailing bytes"
        )

    attrs = _attrs_from_words(opcode, (a0, a1, a2, a3))
    if flags & _FLAG_WIDE_OUTPUT:
        attrs["wide_output"] = True
    return Instruction(
        opcode=opcode,
        data=data,
        data_params=QuantParams(scale=float(data_scale)),
        model=model,
        model_params=model_params,
        out_params=QuantParams(scale=float(out_scale)) if out_scale > 0 else None,
        attrs=attrs,
    )
