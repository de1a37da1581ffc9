"""The conformance case catalog: every op in ``repro.ops``, every app.

Each :class:`OpCase` names one library entry point, a deterministic
dataset builder, its exact float64 reference semantics, and the operator
family whose Table 4/5 envelope (:data:`repro.metrics.errors.OP_BOUNDS`)
gates it.  Shapes are deliberately ragged (prime and off-by-one
dimensions) so the differential run crosses tile boundaries the same way
the vectorized-equivalence property tests do.

Adding a new operator to the suite is one list entry here — see
``docs/conformance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro import ops
from repro.runtime.api import OpenCtpu


@dataclass(frozen=True)
class OpCase:
    """One differential-test case over a ``repro.ops`` entry point."""

    name: str
    #: Bound-table key (:func:`repro.metrics.errors.bound_for_op`).
    family: str
    #: Deterministic dataset builder.
    build: Callable[[np.random.Generator], Dict[str, np.ndarray]]
    #: The library call under test, run once per int8 oracle.
    invoke: Callable[[OpenCtpu, Dict[str, np.ndarray]], object]
    #: Exact float64 semantics of the same call.
    reference: Callable[[Dict[str, np.ndarray]], object]


def _pair_builder(rows: int, cols: int, scale: float = 5.0):
    def build(rng: np.random.Generator) -> Dict[str, np.ndarray]:
        return {
            "a": rng.normal(size=(rows, cols)) * scale,
            "b": rng.normal(size=(rows, cols)) * scale,
        }

    return build


def _gemm_builder(m: int, n: int, k: int, scale: float = 3.0):
    def build(rng: np.random.Generator) -> Dict[str, np.ndarray]:
        return {
            "a": rng.normal(size=(m, n)) * scale,
            "b": rng.normal(size=(n, k)) * scale,
        }

    return build


def _positive_builder(rows: int, cols: int):
    def build(rng: np.random.Generator) -> Dict[str, np.ndarray]:
        return {"a": rng.uniform(0.5, 6.0, size=(rows, cols))}

    return build


def _single_builder(rows: int, cols: int, scale: float = 5.0):
    def build(rng: np.random.Generator) -> Dict[str, np.ndarray]:
        return {"a": rng.normal(size=(rows, cols)) * scale}

    return build


def _vector_builder(n: int):
    def build(rng: np.random.Generator) -> Dict[str, np.ndarray]:
        return {"x": rng.normal(size=n) * 2.0}

    return build


#: Ragged shapes shared across families: 127/129 cross the 128 arithmetic
#: tile edge by one, 65/97 are odd against the 64 reduction tile.
OP_CASES: List[OpCase] = [
    OpCase(
        "add", "pairwise", _pair_builder(127, 66),
        lambda ctx, d: ops.tpu_add(ctx, d["a"], d["b"]),
        lambda d: d["a"] + d["b"],
    ),
    OpCase(
        "sub", "pairwise", _pair_builder(129, 97),
        lambda ctx, d: ops.tpu_sub(ctx, d["a"], d["b"]),
        lambda d: d["a"] - d["b"],
    ),
    OpCase(
        "mul", "mul", _pair_builder(97, 130),
        lambda ctx, d: ops.tpu_mul(ctx, d["a"], d["b"]),
        lambda d: d["a"] * d["b"],
    ),
    OpCase(
        "relu", "unary", _single_builder(127, 129),
        lambda ctx, d: ops.tpu_relu(ctx, d["a"]),
        lambda d: np.maximum(d["a"], 0.0),
    ),
    OpCase(
        "tanh", "unary", _single_builder(66, 127, scale=1.5),
        lambda ctx, d: ops.tpu_tanh(ctx, d["a"]),
        lambda d: np.tanh(d["a"]),
    ),
    OpCase(
        "mean", "reduction", _positive_builder(97, 65),
        lambda ctx, d: ops.tpu_mean(ctx, d["a"]),
        lambda d: float(np.mean(d["a"])),
    ),
    OpCase(
        "max", "reduction", _single_builder(65, 97),
        lambda ctx, d: ops.tpu_max(ctx, d["a"]),
        lambda d: float(np.max(d["a"])),
    ),
    OpCase(
        "gemm-conv2d", "gemm", _gemm_builder(97, 127, 65),
        lambda ctx, d: ops.tpu_gemm(ctx, d["a"], d["b"], method="conv2d"),
        lambda d: d["a"] @ d["b"],
    ),
    OpCase(
        "gemm-fc", "gemm", _gemm_builder(65, 97, 63),
        lambda ctx, d: ops.tpu_gemm(ctx, d["a"], d["b"], method="fc"),
        lambda d: d["a"] @ d["b"],
    ),
    OpCase(
        "matvec", "matvec",
        lambda rng: {
            "v": rng.normal(size=129) * 2.0,
            "m": rng.normal(size=(129, 65)) * 2.0,
        },
        lambda ctx, d: ops.tpu_matvec(ctx, d["v"], d["m"]),
        lambda d: d["v"] @ d["m"],
    ),
    OpCase(
        "conv2d-stencil", "conv2d",
        lambda rng: {
            "data": rng.normal(size=(65, 67)) * 2.0,
            "kernel": rng.normal(size=(3, 3)),
        },
        lambda ctx, d: ops.tpu_stencil2d(ctx, d["data"], d["kernel"]),
        lambda d: _conv2d_valid(d["data"], d["kernel"]),
    ),
    OpCase(
        # Ragged 3x3 halo patches on every edge: the batched stencil
        # against its per-tile twin.  Positive data and weights keep
        # outputs off zero, where MAPE (relative error) is meaningless.
        "conv2d-stencil-tiled", "conv2d",
        lambda rng: {
            "data": rng.uniform(0.5, 6.0, size=(261, 199)),
            "kernel": rng.uniform(0.1, 1.0, size=(3, 3)),
        },
        lambda ctx, d: ops.tpu_stencil2d(ctx, d["data"], d["kernel"]),
        lambda d: _conv2d_valid(d["data"], d["kernel"]),
    ),
    OpCase(
        "crop", "movement", _single_builder(127, 66),
        lambda ctx, d: ops.tpu_crop(ctx, d["a"], (3, 5, 60, 33)),
        lambda d: d["a"][3:63, 5:38],
    ),
    OpCase(
        "pad", "movement", _single_builder(63, 65),
        lambda ctx, d: ops.tpu_pad(ctx, d["a"], (96, 96), offset=(7, 11)),
        lambda d: _pad_ref(d["a"], (96, 96), (7, 11)),
    ),
    OpCase(
        # Positive data: a zero-mean vector can sum to ~0, and a scalar
        # output normalizes error by its own magnitude.
        "reduce-sum", "scan",
        lambda rng: {"x": rng.uniform(0.25, 2.0, size=1023)},
        lambda ctx, d: ops.tpu_reduce_sum(ctx, d["x"]),
        lambda d: float(np.sum(d["x"])),
    ),
    OpCase(
        "prefix-sum", "scan", _vector_builder(255),
        lambda ctx, d: ops.tpu_prefix_sum(ctx, d["x"]),
        lambda d: np.cumsum(d["x"]),
    ),
    OpCase(
        "gemm-precise", "precise", _gemm_builder(63, 128, 65),
        lambda ctx, d: ops.tpu_gemm_precise(ctx, d["a"], d["b"], k_split=4),
        lambda d: d["a"] @ d["b"],
    ),
]


def _nn_conv_builder(rng: np.random.Generator) -> Dict[str, np.ndarray]:
    return {
        "x": rng.normal(size=(2, 3, 17, 13)) * 2.0,
        "w": rng.normal(size=(5, 3, 3, 3)),
        "bias": rng.normal(size=5),
    }


def _conv2d_nn_direct(
    x: np.ndarray,
    w: np.ndarray,
    bias=None,
    stride=(1, 1),
    padding=(0, 0, 0, 0),
    relu: bool = False,
) -> np.ndarray:
    """Direct scalar float64 conv oracle: explicit loops, no im2col."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    sy, sx = stride
    pt, pb, pl, pr = padding
    xp = np.zeros((n, c, h + pt + pb, wd + pl + pr))
    xp[:, :, pt : pt + h, pl : pl + wd] = x
    oh = (xp.shape[2] - kh) // sy + 1
    ow = (xp.shape[3] - kw) // sx + 1
    out = np.zeros((n, f, oh, ow))
    for i in range(n):
        for j in range(f):
            for r in range(oh):
                for col in range(ow):
                    patch = xp[i, :, r * sy : r * sy + kh, col * sx : col * sx + kw]
                    out[i, j, r, col] = float(np.sum(patch * w[j]))
    if bias is not None:
        out += np.asarray(bias).reshape(1, f, 1, 1)
    if relu:
        out = np.maximum(out, 0.0)
    return out


def _pool_ref(a: np.ndarray, window, stride, kind: str) -> np.ndarray:
    from numpy.lib.stride_tricks import sliding_window_view

    wh, ww = window
    sy, sx = stride
    windows = sliding_window_view(a, (wh, ww))[::sy, ::sx]
    if kind == "max":
        return windows.max(axis=(2, 3))
    return windows.mean(axis=(2, 3))


def _softmax_ref(a: np.ndarray) -> np.ndarray:
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


#: The NN-inference extension ops (ISSUE 7): shapes stay ragged — prime
#: spatial dims, stride > 1 with asymmetric padding — so the differential
#: run crosses the same im2col/band boundaries the hypothesis geometry
#: suite probes.
NN_OP_CASES: List[OpCase] = [
    OpCase(
        "conv2d-nn", "conv2d_nn", _nn_conv_builder,
        lambda ctx, d: ops.tpu_conv2d_nn(
            ctx, d["x"], d["w"], bias=d["bias"],
            stride=(2, 1), padding=(1, 0, 2, 1), relu=True,
        ),
        lambda d: _conv2d_nn_direct(
            d["x"], d["w"], bias=d["bias"],
            stride=(2, 1), padding=(1, 0, 2, 1), relu=True,
        ),
    ),
    OpCase(
        "pool-max", "pool", _single_builder(67, 41, scale=4.0),
        lambda ctx, d: ops.tpu_pool2d(ctx, d["a"], window=(3, 2), stride=(2, 2)),
        lambda d: _pool_ref(d["a"], (3, 2), (2, 2), "max"),
    ),
    OpCase(
        "pool-avg", "pool", _single_builder(41, 67, scale=4.0),
        lambda ctx, d: ops.tpu_pool2d(
            ctx, d["a"], window=(2, 2), stride=(2, 2), kind="avg"
        ),
        lambda d: _pool_ref(d["a"], (2, 2), (2, 2), "avg"),
    ),
    OpCase(
        # One POOL over a (P, H, W) plane stack; planes of very different
        # ranges keep their own scales.
        "pool-stack", "pool",
        lambda rng: {
            "a": rng.normal(size=(5, 37, 29))
            * np.array([4.0, 0.05, 1.0, 9.0, 0.5])[:, None, None],
        },
        lambda ctx, d: ops.tpu_pool2d(ctx, d["a"], window=(3, 2), stride=(2, 2)),
        lambda d: np.stack([_pool_ref(p, (3, 2), (2, 2), "max") for p in d["a"]]),
    ),
    OpCase(
        # Ten columns — a classifier-head shape.  Wider rows drive most
        # probabilities under the 1/127 output quantum, which is a MAPE
        # artifact, not a lowering defect (docs/nn.md).
        "softmax", "softmax", _single_builder(97, 10, scale=2.0),
        lambda ctx, d: ops.tpu_softmax(ctx, d["a"]),
        lambda d: _softmax_ref(d["a"]),
    ),
]

OP_CASES += NN_OP_CASES


def _conv2d_valid(data: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    from numpy.lib.stride_tricks import sliding_window_view

    windows = sliding_window_view(data, kernel.shape)
    return np.tensordot(windows, kernel, axes=([2, 3], [0, 1]))


def _pad_ref(a: np.ndarray, shape, offset) -> np.ndarray:
    out = np.zeros(shape, dtype=np.float64)
    r0, c0 = offset
    out[r0 : r0 + a.shape[0], c0 : c0 + a.shape[1]] = a
    return out


#: Scaled-down per-app parameters for the apps suite — accuracy is shape-
#: and scaling-driven, not size-driven (Table 4 reproduces at 384² as at
#: paper scale), so the conformance gate runs small and fast.
APP_PARAMS: Dict[str, Dict[str, int]] = {
    "backprop": {"batch": 128, "n_in": 256, "n_hidden": 64, "n_out": 16},
    "blackscholes": {"n_options": 64 * 64},
    "gaussian": {"n": 192},
    "gemm": {"n": 192},
    "hotspot3d": {"n": 96, "layers": 2, "iterations": 2},
    "lud": {"n": 192},
    "pagerank": {"n": 256, "iterations": 5},
}
