"""Host memory of the batch path stays within its working set.

Traced with ``tracemalloc`` (NumPy reports its buffers to it), from
after the operands exist: what an operation allocates on top of them.
Elementwise ops lower band by band, conv2D-GEMM reads its operands in
place and streams its scratch by row block, and a pending operation
does not pin its operands until ``sync()``.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.host.platform import Platform
from repro.ops.elementwise import tpu_add, tpu_mul, tpu_tanh
from repro.ops.gemm import tpu_gemm
from repro.runtime.api import OpenCtpu


def _traced_peak(call) -> int:
    """Peak bytes allocated while *call* runs, above what existed before."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def ctx():
    return OpenCtpu(Platform.with_tpus(8))


def _operands(*shapes):
    rng = np.random.default_rng(11)
    return [rng.normal(size=shape) for shape in shapes]


@pytest.mark.parametrize("op", [tpu_add, tpu_mul])
def test_pairwise_op_peaks_under_twice_its_operands(ctx, op):
    a, b = _operands((2048, 512), (2048, 512))
    peak = _traced_peak(lambda: op(ctx, a, b))
    assert peak < 2 * (a.nbytes + b.nbytes)


def test_tanh_peaks_under_twice_its_operand(ctx):
    (a,) = _operands((2048, 512))
    peak = _traced_peak(lambda: tpu_tanh(ctx, a))
    assert peak < 2 * a.nbytes


def test_gemm_on_a_transposed_operand_makes_no_operand_sized_copy(ctx):
    x, w = _operands((2048, 2048), (2048, 64))
    peak = _traced_peak(lambda: tpu_gemm(ctx, x.T, w))
    assert peak < x.nbytes


@pytest.mark.parametrize("op, attrs", [("add", {}), ("conv2D", {"gemm": True})])
def test_pending_operation_does_not_pin_converted_operands(ctx, op, attrs):
    rng = np.random.default_rng(3)
    a = rng.normal(size=(256, 256)).astype(np.float32)
    b = rng.normal(size=(256, 256)).astype(np.float32)
    copies = []
    lower = ctx.tensorizer.lower

    def spy(request):
        copies.append(weakref.ref(request.inputs[0]))
        return lower(request)

    ctx.tensorizer.lower = spy
    ctx.invoke_operator(op, a, b, **attrs)
    gc.collect()
    assert ctx.pending_operations == 1
    assert len(copies) == 1 and copies[0]() is None  # the float64 copy of a
    ctx.sync()
