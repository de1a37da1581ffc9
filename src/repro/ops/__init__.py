"""Optimized GPTPU operator library (paper §7).

High-level tensor routines built on the OpenCtpu runtime, analogous to
cuBLAS on CUDA.  The flagship is :func:`repro.ops.gemm.tpu_gemm` — the
paper's ``tpuGemm`` — implementing both the §7.1.2 strided-conv2D
algorithm (fast) and the §7.1.1 FullyConnected algorithm (the Fig. 6
comparison baseline).
"""

from repro.ops.conv import tpu_stencil2d
from repro.ops.crop_pad import tpu_crop, tpu_pad
from repro.ops.elementwise import tpu_add, tpu_mul, tpu_relu, tpu_sub, tpu_tanh
from repro.ops.gemm import tpu_gemm, tpu_matvec
from repro.ops.nn import tpu_conv2d_nn, tpu_pool2d, tpu_softmax
from repro.ops.precision import precision_gain, split_residual, tpu_gemm_precise
from repro.ops.reduction import tpu_max, tpu_mean
from repro.ops.scan import tpu_prefix_sum, tpu_reduce_sum

__all__ = [
    "precision_gain",
    "split_residual",
    "tpu_prefix_sum",
    "tpu_reduce_sum",
    "tpu_add",
    "tpu_conv2d_nn",
    "tpu_crop",
    "tpu_gemm",
    "tpu_gemm_precise",
    "tpu_matvec",
    "tpu_max",
    "tpu_mean",
    "tpu_mul",
    "tpu_pad",
    "tpu_pool2d",
    "tpu_relu",
    "tpu_softmax",
    "tpu_stencil2d",
    "tpu_sub",
    "tpu_tanh",
]
