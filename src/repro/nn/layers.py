"""Inference layers: weights bound to the NN operator wrappers.

Every layer is a callable ``layer(ctx, x) -> ndarray`` running entirely
through the simulated int8 pipeline.  Activations travel between layers
as dequantized float64 host arrays — exactly the paper's operator
boundary, where each invocation re-quantizes its inputs (§6.2.2) — so a
layer sequence models a real multi-invocation Edge TPU inference, not a
fused graph.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import RuntimeAPIError
from repro.ops.gemm import tpu_gemm
from repro.ops.nn import tpu_conv2d_nn, tpu_pool2d, tpu_softmax
from repro.runtime.api import OpenCtpu


def _require_nchw(x: np.ndarray, layer: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise RuntimeAPIError(f"{layer} expects an (N, C, H, W) input, got {x.shape}")
    return x


class Conv2d:
    """Multichannel convolution with optional bias, fused ReLU."""

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        stride: Union[int, Tuple[int, int]] = 1,
        padding=0,
        relu: bool = False,
        channel_scales: Optional[Sequence[float]] = None,
    ) -> None:
        self.weight = np.asarray(weight, dtype=np.float64)
        if self.weight.ndim != 4:
            raise RuntimeAPIError(
                f"Conv2d weight must be (F, C, kh, kw), got {self.weight.shape}"
            )
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        self.stride = stride
        self.padding = padding
        self.relu = relu
        self.channel_scales = channel_scales

    def __call__(self, ctx: OpenCtpu, x: np.ndarray) -> np.ndarray:
        return tpu_conv2d_nn(
            ctx,
            _require_nchw(x, "Conv2d"),
            self.weight,
            bias=self.bias,
            stride=self.stride,
            padding=self.padding,
            relu=self.relu,
            channel_scales=self.channel_scales,
        )


class Pool2d:
    """Windowed max/average pooling over every (H, W) plane."""

    def __init__(
        self,
        window: Union[int, Tuple[int, int]] = 2,
        stride: Optional[Union[int, Tuple[int, int]]] = None,
        kind: str = "max",
    ) -> None:
        self.window = window
        self.stride = stride
        self.kind = kind

    def __call__(self, ctx: OpenCtpu, x: np.ndarray) -> np.ndarray:
        x = _require_nchw(x, "Pool2d")
        n, c, h, w = x.shape
        # One POOL over the (N·C, H, W) plane stack: each plane keeps its
        # own row bands and scales, so windows never straddle planes.
        out = tpu_pool2d(
            ctx, x.reshape(n * c, h, w), window=self.window, stride=self.stride, kind=self.kind
        )
        return out.reshape((n, c) + out.shape[1:])


class Flatten:
    """Host-side reshape of (N, C, H, W) activations to (N, C·H·W)."""

    def __call__(self, ctx: OpenCtpu, x: np.ndarray) -> np.ndarray:
        x = _require_nchw(x, "Flatten")
        return np.ascontiguousarray(x.reshape(x.shape[0], -1))


class Dense:
    """Fully-connected layer lowered as a 1×1 conv2D_nn.

    The im2col of a 1×1/stride-1 convolution is the input matrix itself,
    so this runs the same patch×kernel GEMM as :func:`tpu_gemm` while
    keeping the bias fold, fused ReLU, and per-output-channel int8
    requantization inside the device epilogue instead of on the host.
    """

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        relu: bool = False,
        channel_scales: Optional[Sequence[float]] = None,
    ) -> None:
        self.weight = np.asarray(weight, dtype=np.float64)
        if self.weight.ndim != 2:
            raise RuntimeAPIError(
                f"Dense weight must be (in, out), got {self.weight.shape}"
            )
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        self.relu = relu
        self.channel_scales = channel_scales

    def __call__(self, ctx: OpenCtpu, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.weight.shape[0]:
            raise RuntimeAPIError(
                f"Dense expects (N, {self.weight.shape[0]}), got {x.shape}"
            )
        n, d_in = x.shape
        d_out = self.weight.shape[1]
        out = tpu_conv2d_nn(
            ctx,
            x.reshape(n, d_in, 1, 1),
            self.weight.T.reshape(d_out, d_in, 1, 1),
            bias=self.bias,
            relu=self.relu,
            channel_scales=self.channel_scales,
        )
        return out.reshape(n, d_out)


class Softmax:
    """Row-wise softmax over (N, K) logits."""

    def __call__(self, ctx: OpenCtpu, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise RuntimeAPIError(f"Softmax expects an (N, K) input, got {x.shape}")
        return tpu_softmax(ctx, x)


class Attention:
    """Single-head attention: softmax(Q·Kᵀ/√d)·V over a (T, D) sequence.

    The 1/√d score scaling is folded into the key projection at
    construction time — one fewer elementwise pass, and the fold is
    exact because it happens in float before quantization.
    """

    def __init__(self, wq: np.ndarray, wk: np.ndarray, wv: np.ndarray) -> None:
        wq = np.asarray(wq, dtype=np.float64)
        wk = np.asarray(wk, dtype=np.float64)
        wv = np.asarray(wv, dtype=np.float64)
        if not (wq.shape == wk.shape and wq.ndim == 2 and wv.ndim == 2):
            raise RuntimeAPIError(
                f"Attention projections must be 2-D (D, d_head) with matching "
                f"Q/K shapes, got {wq.shape}/{wk.shape}/{wv.shape}"
            )
        if wv.shape[0] != wq.shape[0]:
            raise RuntimeAPIError(
                f"Attention V projection rows must match D={wq.shape[0]}, "
                f"got {wv.shape}"
            )
        self.wq = wq
        self.wk_scaled = wk / np.sqrt(float(wq.shape[1]))
        self.wv = wv

    def __call__(self, ctx: OpenCtpu, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.wq.shape[0]:
            raise RuntimeAPIError(
                f"Attention expects (T, {self.wq.shape[0]}), got {x.shape}"
            )
        q = tpu_gemm(ctx, x, self.wq)
        k = tpu_gemm(ctx, x, self.wk_scaled)
        v = tpu_gemm(ctx, x, self.wv)
        scores = tpu_gemm(ctx, q, np.ascontiguousarray(k.T))
        probs = tpu_softmax(ctx, scores)
        return tpu_gemm(ctx, probs, v)
