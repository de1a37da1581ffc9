"""NN-inference operator wrappers (docs/nn.md).

The Edge TPU's native workload — int8 neural-network inference — exposed
through the same OpenCtpu entry points as the paper's general-purpose
operators.  Three primitives cover the LeNet/attention model zoo in
:mod:`repro.nn`:

* :func:`tpu_conv2d_nn` — multichannel NCHW convolution lowered via
  im2col onto the §7.1.2 conv2D-GEMM path (stride, asymmetric padding,
  bias fold, fused ReLU, per-output-channel requantization);
* :func:`tpu_pool2d` — windowed max/average pooling;
* :func:`tpu_softmax` — row-wise max-subtracted int8 softmax.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.edgetpu.isa import Opcode
from repro.runtime.api import OpenCtpu
from repro.runtime.buffers import Buffer

Padding = Union[int, Tuple[int, int], Tuple[int, int, int, int]]


def _norm_pair(value, what: str) -> Tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    pair = tuple(int(v) for v in value)
    if len(pair) != 2:
        raise ValueError(f"{what} must be an int or a pair, got {value!r}")
    return pair


def _norm_padding(padding: Padding) -> Tuple[int, int, int, int]:
    if isinstance(padding, int):
        return (padding, padding, padding, padding)
    pad = tuple(int(v) for v in padding)
    if len(pad) == 2:
        return (pad[0], pad[0], pad[1], pad[1])
    if len(pad) == 4:
        return pad
    raise ValueError(
        f"padding must be an int, (py, px), or (pt, pb, pl, pr); got {padding!r}"
    )


def tpu_conv2d_nn(
    ctx: OpenCtpu,
    x,
    w,
    bias=None,
    stride: Union[int, Tuple[int, int]] = 1,
    padding: Padding = 0,
    relu: bool = False,
    channel_scales: Optional[Sequence[float]] = None,
    chunks: Optional[int] = None,
    out: Optional[Buffer] = None,
) -> np.ndarray:
    """Multichannel 2-D convolution: ``x (N,C,H,W) * w (F,C,kh,kw)``.

    Returns an ``(N, F, OH, OW)`` activation map computed through the
    simulated int8 pipeline: im2col on the host, the patch×kernel GEMM
    on the device via the §7.1.2 conv2D algorithm, then bias add,
    optional fused ReLU, and per-output-channel int8 requantization.
    ``channel_scales`` pins the per-channel output scales (calibrated
    inference); the default derives them from the measured range.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    inputs = [x, w]
    if bias is not None:
        inputs.append(np.asarray(bias, dtype=np.float64))
    attrs = {
        "stride": _norm_pair(stride, "stride"),
        "padding": _norm_padding(padding),
    }
    if relu:
        attrs["relu"] = True
    if channel_scales is not None:
        attrs["channel_scales"] = tuple(float(s) for s in channel_scales)
    if chunks is not None:
        attrs["gemm_chunks"] = int(chunks)
    return ctx.invoke_operator(Opcode.CONV2D_NN, *inputs, out=out, **attrs)


def tpu_pool2d(
    ctx: OpenCtpu,
    x,
    window: Union[int, Tuple[int, int]] = 2,
    stride: Optional[Union[int, Tuple[int, int]]] = None,
    kind: str = "max",
    out: Optional[Buffer] = None,
) -> np.ndarray:
    """Windowed 2-D pooling of a matrix or a ``(P, H, W)`` plane stack.

    Valid windows only; ``stride`` defaults to the window
    (non-overlapping pooling).  A stack pools each plane on its own, in
    one operation, and returns ``(P, OH, OW)``.  For a batched
    ``(N, C, H, W)`` activation map use :class:`repro.nn.layers.Pool2d`,
    which reshapes it to an ``(N·C, H, W)`` stack.
    """
    win = _norm_pair(window, "window")
    st = win if stride is None else _norm_pair(stride, "stride")
    return ctx.invoke_operator(
        Opcode.POOL,
        np.asarray(x, dtype=np.float64),
        out=out,
        window=win,
        stride=st,
        kind=kind,
    )


def tpu_softmax(
    ctx: OpenCtpu,
    x,
    out: Optional[Buffer] = None,
) -> np.ndarray:
    """Row-wise softmax of a 2-D matrix through the int8 exp LUT."""
    return ctx.invoke_operator(
        Opcode.SOFTMAX,
        np.asarray(x, dtype=np.float64),
        out=out,
    )
