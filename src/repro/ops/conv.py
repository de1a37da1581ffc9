"""Stencil-style 2-D convolution wrapper (HotSpot3D's kernel, §7.2.2).

Named ``tpu_stencil2d`` to disambiguate it from the multichannel NN
convolution (:func:`repro.ops.nn.tpu_conv2d_nn`): this routine convolves
one 2-D plane with one small kernel — the HotSpot3D relaxation stencil —
and lowers to a single halo-tiled conv2D instruction stream, with no
channels, bias, or activation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.edgetpu.isa import Opcode
from repro.runtime.api import OpenCtpu
from repro.runtime.buffers import Buffer


def tpu_stencil2d(
    ctx: OpenCtpu,
    data,
    kernel,
    model_name: str = "",
    out: Optional[Buffer] = None,
) -> np.ndarray:
    """Valid 2-D convolution of *data* with a small *kernel*.

    ``model_name`` lets the tiny stencil kernel stay resident on-chip
    across iterative calls.
    """
    attrs = {"model_name": model_name} if model_name else {}
    return ctx.invoke_operator(
        Opcode.CONV2D,
        np.asarray(data, dtype=np.float64),
        np.asarray(kernel, dtype=np.float64),
        out=out,
        **attrs,
    )

