"""Ragged im2col geometry sweep: per-tile reference vs production path.

The conv2D_nn lowering turns NCHW geometry (stride, asymmetric padding,
multi-channel patches) into one im2col GEMM; a single off-by-one in the
patch extraction shows up as silently wrong activations.  This suite
drives prime spatial dims, kernels wider than one arithmetic tile edge
(C·kh·kw > 128), and stride > 1 with asymmetric padding through the
production Tensorizer and the conformance reference and demands
**bit-identity** — the reference's per-tile GEMM under the same im2col
is the conv oracle, the batched path must reproduce it byte for byte —
plus agreement with an explicit-loop float oracle within the calibrated
family envelope.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.cases import _conv2d_nn_direct
from repro.conformance.reference import ReferenceTensorizer
from repro.edgetpu.isa import Opcode
from repro.metrics.errors import rmse_percent
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import Tensorizer

PRIMES = st.sampled_from([5, 7, 11, 13, 17, 19, 23])
KERNELS = st.sampled_from([(1, 1), (2, 2), (3, 3), (5, 5), (3, 5), (5, 3)])
STRIDES = st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)])
PADS = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)
SEEDS = st.integers(0, 2**31 - 1)


def _request(opcode, inputs, **attrs):
    return OperationRequest(
        task_id=0,
        opcode=opcode,
        inputs=tuple(inputs),
        quant=QuantMode.SCALE,
        attrs=attrs,
    )


def _both_paths(build_request):
    lv = Tensorizer().lower(build_request())
    ls = ReferenceTensorizer().lower(build_request())
    rv, rs = np.asarray(lv.result), np.asarray(ls.result)
    assert rv.shape == rs.shape
    assert rv.tobytes() == rs.tobytes(), "im2col path diverged from the reference"
    assert lv.saturated == ls.saturated
    return rv


class TestConvGeometry:
    @given(PRIMES, PRIMES, KERNELS, STRIDES, PADS,
           st.integers(1, 2), st.integers(1, 3), st.integers(1, 4), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_ragged_conv_bit_identity(
        self, h, w, kernel, stride, padding, n, c, f, seed
    ):
        kh, kw = kernel
        pt, pb, pl, pr = padding
        sy, sx = stride
        oh = (h + pt + pb - kh) // sy + 1
        ow = (w + pl + pr - kw) // sx + 1
        if oh < 1 or ow < 1:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, h, w)) * 2.0
        wgt = rng.normal(size=(f, c, kh, kw))
        bias = rng.normal(size=f)
        result = _both_paths(
            lambda: _request(
                Opcode.CONV2D_NN, (x, wgt, bias),
                stride=stride, padding=padding, relu=bool(seed % 2),
            )
        )
        truth = _conv2d_nn_direct(
            x, wgt, bias=bias, stride=stride,
            padding=padding, relu=bool(seed % 2),
        )
        assert result.shape == truth.shape == (n, f, oh, ow)
        if np.abs(truth).max() > 1e-9:
            assert rmse_percent(result, truth) < 5.0

    def test_kernel_wider_than_tile_edge(self):
        # C*kh*kw = 3*7*7 = 147 > 128: every im2col row crosses the
        # arithmetic-tile edge, so the GEMM must chunk the patch axis.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 3, 23, 19)) * 2.0
        w = rng.normal(size=(4, 3, 7, 7))
        result = _both_paths(
            lambda: _request(Opcode.CONV2D_NN, (x, w), stride=(1, 1),
                             padding=(0, 0, 0, 0))
        )
        truth = _conv2d_nn_direct(x, w)
        assert result.shape == truth.shape
        assert rmse_percent(result, truth) < 5.0

    def test_output_larger_than_one_band(self):
        # Prime 61x53 with 3x3 kernel: thousands of output elements per
        # image, so the inner GEMM spans several row chunks.
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 2, 61, 53)) * 3.0
        w = rng.normal(size=(3, 2, 3, 3))
        result = _both_paths(
            lambda: _request(Opcode.CONV2D_NN, (x, w), stride=(2, 2),
                             padding=(1, 0, 0, 1), relu=True)
        )
        truth = _conv2d_nn_direct(x, w, stride=(2, 2), padding=(1, 0, 0, 1),
                                  relu=True)
        assert result.shape == truth.shape
        assert rmse_percent(result, truth) < 5.0

    def test_channel_scales_override_is_honored(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 9, 9))
        w = rng.normal(size=(4, 2, 3, 3))
        scales = (7.0, 9.0, 11.0, 13.0)
        result = _both_paths(
            lambda: _request(Opcode.CONV2D_NN, (x, w), stride=(1, 1),
                             padding=(0, 0, 0, 0), channel_scales=scales)
        )
        # Pinned per-channel scales mean every output value is a
        # multiple of its channel's quantum.
        for ch, scale in enumerate(scales):
            quanta = result[:, ch] * scale
            assert np.allclose(quanta, np.round(quanta), atol=1e-9)


class TestPoolSoftmaxGeometry:
    @given(PRIMES, PRIMES,
           st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3)]),
           st.sampled_from([(1, 1), (2, 2), (2, 1), (3, 3)]),
           st.sampled_from(["max", "avg"]), SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_ragged_pool_bit_identity(self, h, w, window, stride, kind, seed):
        wh, ww = window
        if wh > h or ww > w:
            return
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(h * 3, w * 3)) * 4.0
        _both_paths(
            lambda: _request(Opcode.POOL, (a,), window=window,
                             stride=stride, kind=kind)
        )

    @given(PRIMES, st.integers(2, 64), SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_ragged_softmax_bit_identity(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(rows * 5, cols)) * 2.0
        result = _both_paths(lambda: _request(Opcode.SOFTMAX, (a,)))
        assert np.all(result >= 0.0)
        # Each probability carries up to ~half an output quantum (1/254)
        # of rounding, so the row-sum drift budget scales with width.
        assert np.abs(result.sum(axis=1) - 1.0).max() < 0.02 + 0.75 * cols / 127.0


class TestConvValidation:
    def test_bad_shapes_rejected(self):
        tz = Tensorizer()
        rng = np.random.default_rng(0)
        with pytest.raises(Exception, match="conv2D_nn|NCHW|expects"):
            tz.lower(_request(Opcode.CONV2D_NN,
                              (rng.normal(size=(4, 4)),
                               rng.normal(size=(1, 1, 3, 3)))))

    def test_kernel_exceeding_padded_input_rejected(self):
        tz = Tensorizer()
        rng = np.random.default_rng(0)
        with pytest.raises(Exception):
            tz.lower(_request(Opcode.CONV2D_NN,
                              (rng.normal(size=(1, 1, 4, 4)),
                               rng.normal(size=(1, 1, 9, 9))),
                              stride=(1, 1), padding=(0, 0, 0, 0)))
