"""Exact integer semantics of each Edge TPU instruction.

Every function here is pure: quantized int8 operands in, a wide integer
accumulator (int64) plus its effective scale out.  "Effective scale"
means the factor ``f_acc`` such that ``accumulator = raw_result * f_acc``
exactly (up to the input quantization already applied) — the device
requantizes the accumulator to int8 before results leave the chip (see
:mod:`repro.edgetpu.device`).

MAC counts are returned alongside results because the timing model
(§3.2 calibration) charges matrix arithmetic by multiply-accumulate
throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import parallel
from repro.errors import UnsupportedInstructionError
from repro.edgetpu.isa import Instruction, Opcode
from repro.edgetpu.quantize import QMAX


@dataclass(frozen=True)
class OpResult:
    """Raw outcome of one instruction before output requantization."""

    #: Wide integer accumulator (int64).
    acc: np.ndarray
    #: Factor such that acc = raw_result * acc_scale.
    acc_scale: float
    #: Multiply-accumulate operations performed (for the timing model).
    macs: int


def _require_2d(arr: np.ndarray, what: str) -> np.ndarray:
    if arr.ndim != 2:
        raise UnsupportedInstructionError(f"{what} must be 2-D, got shape {arr.shape}")
    return arr


def conv2d(
    data: np.ndarray,
    kernels: np.ndarray,
    data_scale: float,
    kernel_scale: float,
    stride: Tuple[int, int] | None = None,
) -> OpResult:
    """2-D valid convolution (cross-correlation, as NN frameworks define it).

    ``kernels`` may be 2-D (one kernel, output is 2-D) or 3-D with shape
    ``(num_kernels, kh, kw)`` (output channels stacked on axis 0 — how
    Tensorizer batches the per-column kernels of the GEMM algorithm).

    ``stride`` defaults to (1, 1).  The paper's GEMM trick (§7.1.2) uses
    stride == kernel size so each window is consumed exactly once.
    """
    data = _require_2d(data, "conv2D data")
    single = kernels.ndim == 2
    if single:
        kernels = kernels[None, :, :]
    if kernels.ndim != 3:
        raise UnsupportedInstructionError(f"conv2D kernels must be 2-D or 3-D, got {kernels.shape}")
    nk, kh, kw = kernels.shape
    if kh > data.shape[0] or kw > data.shape[1]:
        raise UnsupportedInstructionError(
            f"kernel {kh}x{kw} larger than data {data.shape[0]}x{data.shape[1]}"
        )
    sy, sx = stride if stride is not None else (1, 1)
    if sy < 1 or sx < 1:
        raise UnsupportedInstructionError(f"stride must be positive, got ({sy}, {sx})")
    windows = sliding_window_view(data, (kh, kw))[::sy, ::sx]
    # windows: (oh, ow, kh, kw); kernels: (nk, kh, kw) -> (nk, oh, ow)
    acc = np.tensordot(
        kernels.astype(np.int64), windows.astype(np.int64), axes=([1, 2], [2, 3])
    )
    out = acc[0] if single else acc
    macs = int(out.size) * kh * kw if single else int(acc.size) * kh * kw
    return OpResult(acc=out, acc_scale=data_scale * kernel_scale, macs=macs)


def fully_connected(
    vec: np.ndarray, weights: np.ndarray, vec_scale: float, weight_scale: float
) -> OpResult:
    """Input vector times weight matrix (Table 1: FullyConnected).

    ``vec`` has shape (n,); ``weights`` has shape (n, m); output (m,).
    """
    if vec.ndim != 1:
        raise UnsupportedInstructionError(f"FullyConnected input must be 1-D, got {vec.shape}")
    weights = _require_2d(weights, "FullyConnected weights")
    if weights.shape[0] != vec.shape[0]:
        raise UnsupportedInstructionError(
            f"dimension mismatch: vec {vec.shape[0]} vs weights {weights.shape}"
        )
    acc = vec.astype(np.int64) @ weights.astype(np.int64)
    return OpResult(acc=acc, acc_scale=vec_scale * weight_scale, macs=int(vec.size) * weights.shape[1])


def pairwise(op: Opcode, a: np.ndarray, b: np.ndarray, a_scale: float, b_scale: float) -> OpResult:
    """Pairwise add / sub / mul on two same-shape matrices."""
    if a.shape != b.shape:
        raise UnsupportedInstructionError(f"pairwise shapes differ: {a.shape} vs {b.shape}")
    wa = a.astype(np.int64)
    wb = b.astype(np.int64)
    if op is Opcode.MUL:
        return OpResult(acc=wa * wb, acc_scale=a_scale * b_scale, macs=int(a.size))
    # add/sub need a common input scale; the Tensorizer guarantees it.
    if not np.isclose(a_scale, b_scale, rtol=1e-12):
        raise UnsupportedInstructionError(
            f"{op.opname} requires operands quantized with one scale "
            f"({a_scale} != {b_scale}); requantize first"
        )
    acc = wa + wb if op is Opcode.ADD else wa - wb
    return OpResult(acc=acc, acc_scale=a_scale, macs=0)


def crop_window(data: np.ndarray, box: Tuple[int, int, int, int]) -> np.ndarray:
    """The view of *data* a crop with ``box = (row0, col0, h, w)`` keeps;
    raises for a box that does not fit."""
    data = _require_2d(data, "crop data")
    r0, c0, h, w = box
    if r0 < 0 or c0 < 0 or h < 1 or w < 1 or r0 + h > data.shape[0] or c0 + w > data.shape[1]:
        raise UnsupportedInstructionError(f"crop box {box} outside data shape {data.shape}")
    return data[r0 : r0 + h, c0 : c0 + w]


def crop(data: np.ndarray, box: Tuple[int, int, int, int], scale: float) -> OpResult:
    """Extract a sub-matrix (Table 1: crop).  box = (row0, col0, h, w)."""
    return OpResult(acc=crop_window(data, box).astype(np.int64), acc_scale=scale, macs=0)


def ext(
    data: np.ndarray,
    out_shape: Tuple[int, int],
    offset: Tuple[int, int],
    scale: float,
) -> OpResult:
    """Zero-pad to ``out_shape`` placing data at ``offset`` (Table 1: ext)."""
    data = _require_2d(data, "ext data")
    oh, ow = out_shape
    r0, c0 = offset
    if r0 < 0 or c0 < 0 or r0 + data.shape[0] > oh or c0 + data.shape[1] > ow:
        raise UnsupportedInstructionError(
            f"ext placement {offset} of {data.shape} exceeds target {out_shape}"
        )
    out = np.zeros((oh, ow), dtype=np.int64)
    out[r0 : r0 + data.shape[0], c0 : c0 + data.shape[1]] = data
    return OpResult(acc=out, acc_scale=scale, macs=0)


def mean(data: np.ndarray, scale: float) -> OpResult:
    """Average of all elements (Table 1: mean) — one scalar result.

    The accumulator keeps the exact sum; the effective scale folds in
    the element count so that acc ≈ raw_mean * acc_scale.
    """
    total = int(data.astype(np.int64).sum())
    return OpResult(acc=np.array([[total]], dtype=np.int64), acc_scale=scale * data.size, macs=int(data.size))


def matrix_max(data: np.ndarray, scale: float) -> OpResult:
    """Maximum element (Table 1: max) — one scalar result, exact."""
    return OpResult(acc=np.array([[int(data.max())]], dtype=np.int64), acc_scale=scale, macs=int(data.size))


def tanh(data: np.ndarray, scale: float) -> OpResult:
    """Elementwise tanh via the device's 8-bit lookup table.

    The device dequantizes each int8 level, evaluates tanh, and encodes
    the [-1, 1] result in int8 with scale 127 — i.e. a 256-entry LUT.
    The accumulator already holds the final int8 codes.
    """
    levels = np.arange(-128, 128, dtype=np.int64)
    lut = np.rint(np.tanh(levels / scale) * QMAX).astype(np.int64)
    return OpResult(acc=lut[data.astype(np.int64) + 128], acc_scale=float(QMAX), macs=0)


def relu(data: np.ndarray, scale: float) -> OpResult:
    """Elementwise ReLU (Table 1: "Leave only non-zero values") — exact."""
    return OpResult(acc=np.maximum(data.astype(np.int64), 0), acc_scale=scale, macs=0)


def _pool_geometry(
    data_shape: Tuple[int, ...],
    window: Tuple[int, int],
    stride: Tuple[int, int],
) -> Tuple[int, int, int, int]:
    wh, ww = window
    sy, sx = stride
    if wh < 1 or ww < 1:
        raise UnsupportedInstructionError(f"pool window must be positive, got {window}")
    if sy < 1 or sx < 1:
        raise UnsupportedInstructionError(f"pool stride must be positive, got {stride}")
    h, w = data_shape[-2], data_shape[-1]
    if wh > h or ww > w:
        raise UnsupportedInstructionError(
            f"pool window {wh}x{ww} larger than data {h}x{w}"
        )
    return wh, ww, sy, sx


def pool2d(
    data: np.ndarray,
    window: Tuple[int, int],
    stride: Tuple[int, int],
    kind: str,
    scale: float,
) -> OpResult:
    """2-D valid pooling over sliding windows (NN extension: pool).

    ``kind`` is ``"max"`` (exact: the accumulator keeps the winning int8
    code at the input scale) or ``"avg"`` (exact window sums; the
    effective scale folds in the window size, mirroring :func:`mean`).
    """
    data = _require_2d(data, "pool data")
    wh, ww, sy, sx = _pool_geometry(data.shape, window, stride)
    windows = sliding_window_view(data.astype(np.int64), (wh, ww))[::sy, ::sx]
    if kind == "max":
        acc = windows.max(axis=(2, 3))
        acc_scale = scale
    elif kind == "avg":
        acc = windows.sum(axis=(2, 3))
        acc_scale = scale * wh * ww
    else:
        raise UnsupportedInstructionError(f"unknown pool kind {kind!r}")
    return OpResult(acc=acc, acc_scale=acc_scale, macs=int(acc.size) * wh * ww)


def _exp_lut(scale: float) -> np.ndarray:
    """256-entry LUT of ``rint(exp(-d / scale) * 127)`` for d in [0, 255].

    ``d`` is the (non-negative) int8-level distance from the row maximum,
    so the table covers every reachable argument of the max-subtracted
    exponential and entry 0 is exactly 127.
    """
    steps = np.arange(256, dtype=np.float64)
    return np.rint(np.exp(-steps / scale) * QMAX).astype(np.int64)


def softmax(data: np.ndarray, scale: float) -> OpResult:
    """Row-wise numerically-safe int8 softmax (NN extension: softmax).

    The device subtracts each row's maximum level (so exponent arguments
    are non-positive and the exponential never overflows), evaluates
    ``exp`` through a 256-entry LUT scaled to 127, and normalizes by the
    exact integer row sum.  Output codes live in [0, 127] with scale 127
    — probabilities, lossless through the requantizer like tanh.
    """
    data = _require_2d(data, "softmax data")
    w = data.astype(np.int64)
    d = w.max(axis=1, keepdims=True) - w  # distances in [0, 255]
    e = _exp_lut(scale)[d]
    sums = e.sum(axis=1, keepdims=True)  # >= 127: the row max maps to 127
    acc = np.rint(e * float(QMAX) / sums).astype(np.int64)
    return OpResult(acc=acc, acc_scale=float(QMAX), macs=int(data.size))


# ---------------------------------------------------------------------------
# Batched kernels (vectorized Tensorizer path)
# ---------------------------------------------------------------------------
#
# Each batched kernel executes one instruction per slice of a stacked
# (n_tiles, ...) operand with a single NumPy dispatch.  Accumulator
# semantics are unchanged — the same int64 (or exactly-representable
# float64-integer) arithmetic as the scalar kernels above, so results
# are bit-identical per tile — and MAC accounting follows the same
# rules, computed from the *actual* (unpadded) tile geometry supplied by
# the caller.


@dataclass(frozen=True)
class BatchedOpResult:
    """Raw outcome of a batch of instructions before requantization."""

    #: Wide integer accumulator stack, leading axis = tile index.
    acc: np.ndarray
    #: Per-tile factors such that acc[i] = raw_result[i] * acc_scales[i].
    acc_scales: np.ndarray
    #: Per-tile multiply-accumulate counts (actual tile sizes).
    macs: np.ndarray


def mean_batched(
    data: np.ndarray, scales: np.ndarray, sizes: np.ndarray
) -> BatchedOpResult:
    """Batched matrix-mean: exact int64 sums, scale folds in tile size.

    ``sizes`` carries each tile's actual element count; zero padding in
    the stack adds nothing to the sums.
    """
    totals = data.astype(np.int64).sum(axis=(1, 2))
    return BatchedOpResult(
        acc=totals[:, None, None],
        acc_scales=np.asarray(scales, dtype=np.float64) * sizes,
        macs=np.asarray(sizes, dtype=np.int64),
    )


def max_batched(
    data: np.ndarray, scales: np.ndarray, sizes: np.ndarray
) -> BatchedOpResult:
    """Batched matrix-max — exact.

    The caller must have replaced any stack padding with the int8
    minimum (see :func:`repro.runtime.tiling.fill_padding`) so padding
    cannot win over all-negative tiles.
    """
    return BatchedOpResult(
        acc=data.astype(np.int64).max(axis=(1, 2))[:, None, None],
        acc_scales=np.asarray(scales, dtype=np.float64),
        macs=np.asarray(sizes, dtype=np.int64),
    )


def pool2d_batched(
    data: np.ndarray,
    window: Tuple[int, int],
    stride: Tuple[int, int],
    kind: str,
    scales: np.ndarray,
    out_sizes: np.ndarray,
) -> BatchedOpResult:
    """Batched 2-D pooling over an ``(n, h, w)`` int8 stack.

    Same accumulator arithmetic as :func:`pool2d` per slice.  Windows
    that overlap stack padding produce values the caller must slice
    away (``out_sizes`` carries each tile's *actual* output element
    count for MAC accounting).
    """
    wh, ww, sy, sx = _pool_geometry(data.shape, window, stride)
    windows = sliding_window_view(data.astype(np.int64), (wh, ww), axis=(1, 2))
    windows = windows[:, ::sy, ::sx]
    if kind == "max":
        acc = windows.max(axis=(3, 4))
        acc_scales = np.asarray(scales, dtype=np.float64)
    elif kind == "avg":
        acc = windows.sum(axis=(3, 4))
        acc_scales = np.asarray(scales, dtype=np.float64) * (wh * ww)
    else:
        raise UnsupportedInstructionError(f"unknown pool kind {kind!r}")
    return BatchedOpResult(
        acc=acc,
        acc_scales=acc_scales,
        macs=np.asarray(out_sizes, dtype=np.int64) * (wh * ww),
    )


def softmax_batched(
    data: np.ndarray, scales: np.ndarray, sizes: np.ndarray
) -> BatchedOpResult:
    """Batched row-wise softmax over an ``(n, r, c)`` int8 stack.

    Per-tile 256-entry exponential LUTs (scales differ per tile), then
    the same max-subtract / integer-sum / normalize arithmetic as
    :func:`softmax`.  Rows are independent, so padded *rows* in the
    stack yield garbage the caller slices away without perturbing real
    rows; padded columns are forbidden (they would enter row sums) —
    the Tensorizer only stacks full-width row bands.
    """
    scales = np.asarray(scales, dtype=np.float64)
    w = data.astype(np.int64)
    d = w.max(axis=2, keepdims=True) - w
    steps = np.arange(256, dtype=np.float64)
    luts = np.rint(np.exp(-steps[None, :] / scales[:, None]) * QMAX).astype(np.int64)
    n = data.shape[0]
    e = luts[(np.arange(n)[:, None, None], d)]
    sums = e.sum(axis=2, keepdims=True)
    acc = np.rint(e * float(QMAX) / sums).astype(np.int64)
    return BatchedOpResult(
        acc=acc,
        acc_scales=np.full(n, float(QMAX)),
        macs=np.asarray(sizes, dtype=np.int64),
    )


#: Largest inner-dimension slab for which a float32 GEMM on int8-ranged
#: operands is exact: every partial sum is bounded by 1024 * 128² = 2^24,
#: and float32 represents all integers of magnitude <= 2^24 exactly.
_F32_EXACT_SLAB = 1024


#: Weight tiles per batched FullyConnected matmul (16 × 128² float32
#: is 1 MiB of widened weights).
_FC_TILES_PER_MATMUL = 16


def f32_slab_starts(n: int) -> range:
    """Slab start offsets :func:`f32_slab_products` uses for inner dim *n*."""
    return range(0, n, _F32_EXACT_SLAB)


def f32_slab_products(a32: np.ndarray, b32: np.ndarray, out: Optional[list] = None) -> list:
    """Exact float32 partial products over <=1024-column inner-dim slabs.

    Operands hold int8-ranged integers stored as float32.  Each slab's
    partial sums are bounded by 1024 * 128² = 2^24, below which float32
    represents every integer exactly — for any summation order the BLAS
    kernel chooses — so each returned ``(m, k)`` partial is exact.  The
    caller sums the partials in float64 (also exact: integer magnitudes
    stay far below 2^53) to recover the full product bit-for-bit.

    ``out``, when given, must hold one preallocated ``(m, k)`` float32
    array per slab (see :func:`f32_slab_starts`); the products are
    written in place so repeated same-shape calls skip reallocation.
    """
    n = a32.shape[1]
    starts = f32_slab_starts(n)
    if out is None:
        out = [None] * len(starts)
    return [
        np.matmul(
            a32[:, k0 : min(k0 + _F32_EXACT_SLAB, n)],
            b32[k0 : min(k0 + _F32_EXACT_SLAB, n)],
            **({} if dst is None else {"out": dst}),
        )
        for k0, dst in zip(starts, out)
    ]


def fully_connected_batched(
    vecs: np.ndarray,
    weights: np.ndarray,
    vec_scales: np.ndarray,
    weight_scales: np.ndarray,
    vec_sizes: np.ndarray,
    out_sizes: np.ndarray,
) -> BatchedOpResult:
    """Batched FullyConnected: ``(n, t)`` vectors times ``(n, t, t)`` weights.

    The accumulation runs as float32 batched matmuls over inner-dimension
    slabs of at most ``_F32_EXACT_SLAB``: every partial sum of int8
    products is bounded by 1024 * 128² = 2^24, so each slab is exact for
    any BLAS summation order, and the slabs add up in int64 — bit-identical
    to the scalar int64 path, with or without zero padding.
    """
    if vecs.shape[0] != weights.shape[0] or vecs.shape[1] != weights.shape[1]:
        raise UnsupportedInstructionError(
            f"batch mismatch: vecs {vecs.shape} vs weights {weights.shape}"
        )
    acc = np.zeros((weights.shape[0], weights.shape[2]), dtype=np.int64)

    def tile_groups(g0: int, g1: int) -> None:
        # A few tiles per matmul: the float32 widening of the weights
        # stays that small instead of four times the int8 stack.
        for g in range(g0, g1):
            i0, i1 = g * _FC_TILES_PER_MATMUL, (g + 1) * _FC_TILES_PER_MATMUL
            for k0 in f32_slab_starts(vecs.shape[1]):
                k1 = k0 + _F32_EXACT_SLAB
                acc[i0:i1] += np.matmul(
                    vecs[i0:i1, None, k0:k1].astype(np.float32),
                    weights[i0:i1, k0:k1].astype(np.float32),
                )[:, 0, :].astype(np.int64)

    # Large stacks split their tile groups over the host threads.
    groups = -(-weights.shape[0] // _FC_TILES_PER_MATMUL)
    parallel.split_rows(tile_groups, parallel.row_ranges(groups, weights.size))
    return BatchedOpResult(
        acc=acc,
        acc_scales=np.asarray(vec_scales, dtype=np.float64) * weight_scales,
        macs=np.asarray(vec_sizes, dtype=np.int64) * np.asarray(out_sizes, dtype=np.int64),
    )


def execute(instr: Instruction) -> OpResult:
    """Dispatch one instruction to its functional implementation."""
    op = instr.opcode
    ds = instr.data_params.scale
    if op is Opcode.CONV2D:
        assert instr.model is not None and instr.model_params is not None
        return conv2d(instr.data, instr.model, ds, instr.model_params.scale, instr.attrs.get("stride"))
    if op is Opcode.FULLY_CONNECTED:
        assert instr.model is not None and instr.model_params is not None
        return fully_connected(instr.data, instr.model, ds, instr.model_params.scale)
    if op.is_pairwise:
        assert instr.model is not None and instr.model_params is not None
        return pairwise(op, instr.data, instr.model, ds, instr.model_params.scale)
    if op is Opcode.CROP:
        return crop(instr.data, instr.attrs["crop_box"], ds)
    if op is Opcode.EXT:
        return ext(instr.data, instr.attrs["ext_shape"], instr.attrs.get("ext_offset", (0, 0)), ds)
    if op is Opcode.MEAN:
        return mean(instr.data, ds)
    if op is Opcode.MAX:
        return matrix_max(instr.data, ds)
    if op is Opcode.TANH:
        return tanh(instr.data, ds)
    if op is Opcode.RELU:
        return relu(instr.data, ds)
    if op is Opcode.POOL:
        window = tuple(instr.attrs.get("window", (2, 2)))
        stride = tuple(instr.attrs.get("stride", window))
        return pool2d(instr.data, window, stride, instr.attrs.get("kind", "max"), ds)
    if op is Opcode.SOFTMAX:
        return softmax(instr.data, ds)
    raise UnsupportedInstructionError(f"unknown opcode {op!r}")  # pragma: no cover
