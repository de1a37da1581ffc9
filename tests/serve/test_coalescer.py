"""Request coalescing: eligibility, grouping, and bit-identity.

The acceptance bar for coalescing is exact: a GEMM lowered inside a
multi-client coalesced group must produce results **bit-identical** to
the same request lowered alone (``tobytes`` equality).  The hypothesis
property test drives random shapes, data styles, and group sizes
through both paths.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edgetpu.isa import Opcode
from repro.errors import ServingError, TensorizerError
from repro.host.platform import Platform
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import Tensorizer
from repro.serve import ServeConfig, TpuServer
from repro.serve.coalescer import coalesce, coalesce_key
from repro.serve.request import ServeRequest


def gemm_request(a, b, quant=QuantMode.SCALE, tenant="", **attrs):
    attrs = {"gemm": True, **attrs}
    return OperationRequest(
        task_id=1,
        opcode=Opcode.CONV2D,
        inputs=(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)),
        quant=quant,
        attrs=attrs,
        tenant=tenant,
    )


def _sreq(serve_id, request):
    loop = asyncio.new_event_loop()
    try:
        future = loop.create_future()
    finally:
        loop.close()
    return ServeRequest(
        serve_id=serve_id,
        tenant=request.tenant,
        request=request,
        future=future,
        submitted=0.0,
    )


class TestEligibility:
    def test_matching_gemms_share_a_key(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=(8, 8))
        k1 = coalesce_key(gemm_request(rng.normal(size=(8, 8)), b))
        k2 = coalesce_key(gemm_request(rng.normal(size=(8, 8)), b))
        assert k1 is not None and k1 == k2

    def test_different_model_operand_splits_groups(self):
        # The key names the geometry; B itself is compared by the
        # same-operand rule.  Interleaved clients of two weight matrices
        # form one group per matrix, and an equal-valued copy of a
        # matrix joins its group.
        rng = np.random.default_rng(0)
        b1, b2 = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
        requests = [
            gemm_request(rng.normal(size=(8, 8)), b)
            for b in (b1, b2, b1, b2.copy(), b1)
        ]
        assert len({coalesce_key(r) for r in requests}) == 1
        groups = coalesce([_sreq(i, r) for i, r in enumerate(requests)])
        assert [[s.serve_id for s in g] for g in groups] == [[0, 2, 4], [1, 3]]

    def test_b_dtype_is_part_of_the_key(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
        wide = gemm_request(a, b)
        narrow = gemm_request(a, b)
        narrow.inputs = (a, b.astype(np.float32))
        assert coalesce_key(wide) != coalesce_key(narrow)

    def test_ineligible_requests(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
        # Non-GEMM opcode.
        plain = OperationRequest(
            task_id=1, opcode=Opcode.ADD, inputs=(a, b), quant=QuantMode.SCALE
        )
        assert coalesce_key(plain) is None
        # GLOBAL quantization derives scales from the whole dataset.
        assert coalesce_key(gemm_request(a, b, quant=QuantMode.GLOBAL)) is None
        # Unknown attribute: stay conservative.
        assert coalesce_key(gemm_request(a, b, mystery=1)) is None
        # Shape mismatch between operands.
        assert coalesce_key(gemm_request(rng.normal(size=(8, 4)), b)) is None

    def test_chunk_attr_is_part_of_the_key(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(16, 8)), rng.normal(size=(8, 8))
        k1 = coalesce_key(gemm_request(a, b, gemm_chunks=2))
        k2 = coalesce_key(gemm_request(a, b, gemm_chunks=4))
        assert k1 != k2

    def test_nn_opcodes_are_never_coalesced(self):
        # conv2D_nn / pool / softmax carry per-request quantization
        # context (per-channel scales, window geometry, row maxima);
        # merging two of them would bind one request's quant params to
        # another's data.  They must always ride as singletons.
        rng = np.random.default_rng(0)
        conv = OperationRequest(
            task_id=1, opcode=Opcode.CONV2D_NN,
            inputs=(rng.normal(size=(1, 2, 8, 8)), rng.normal(size=(3, 2, 3, 3))),
            quant=QuantMode.SCALE,
            attrs={"stride": (1, 1), "padding": (0, 0, 0, 0)},
        )
        pool = OperationRequest(
            task_id=1, opcode=Opcode.POOL, inputs=(rng.normal(size=(8, 8)),),
            quant=QuantMode.SCALE,
            attrs={"window": (2, 2), "stride": (2, 2), "kind": "max"},
        )
        softmax = OperationRequest(
            task_id=1, opcode=Opcode.SOFTMAX, inputs=(rng.normal(size=(8, 8)),),
            quant=QuantMode.SCALE, attrs={},
        )
        for request in (conv, pool, softmax):
            assert coalesce_key(request) is None
        groups = coalesce([_sreq(i, r) for i, r in
                           enumerate((conv, pool, softmax, conv))])
        assert [len(g) for g in groups] == [1, 1, 1, 1]

    def test_different_quant_params_never_merge(self):
        # Regression for the NN serving mix: two GEMMs over the same
        # shared B but with different quantization parameters (a
        # per-channel calibration attr, or a different QuantMode) must
        # land in separate groups — a merged lowering would quantize
        # both tenants' activations with one request's params.
        rng = np.random.default_rng(1)
        b = rng.normal(size=(8, 8))
        plain = gemm_request(rng.normal(size=(8, 8)), b)
        calibrated = gemm_request(
            rng.normal(size=(8, 8)), b, channel_scales=(2.0,) * 8
        )
        global_quant = gemm_request(
            rng.normal(size=(8, 8)), b, quant=QuantMode.GLOBAL
        )
        assert coalesce_key(calibrated) is None
        assert coalesce_key(global_quant) is None
        groups = coalesce([
            _sreq(0, plain), _sreq(1, calibrated),
            _sreq(2, global_quant), _sreq(3, plain),
        ])
        # The two plain requests pair up; the differing-quant requests
        # stay alone, in arrival order.
        assert [sorted(s.serve_id for s in g) for g in groups] == [[0, 3], [1], [2]]


class TestGrouping:
    def test_groups_preserve_fcfs_and_max_size(self):
        rng = np.random.default_rng(1)
        b = rng.normal(size=(8, 8))
        sreqs = [
            _sreq(i, gemm_request(rng.normal(size=(8, 8)), b)) for i in range(5)
        ]
        groups = coalesce(sreqs, max_group=2)
        assert [[s.serve_id for s in g] for g in groups] == [[0, 1], [2, 3], [4]]

    def test_frozen_shared_b_groups_by_identity(self, monkeypatch):
        # A read-only B that owns its data is held as itself, and later
        # requests carrying that very array join with no element compare.
        rng = np.random.default_rng(2)
        b = rng.normal(size=(8, 8))
        b.flags.writeable = False
        sreqs = [_sreq(i, gemm_request(rng.normal(size=(8, 8)), b)) for i in range(3)]
        calls = []
        real = np.array_equal
        monkeypatch.setattr(
            np, "array_equal", lambda *args, **kw: calls.append(args) or real(*args, **kw)
        )
        groups = coalesce(sreqs)
        assert [[s.serve_id for s in g] for g in groups] == [[0, 1, 2]]
        assert calls == []

    def test_ineligible_become_singletons_in_place(self):
        rng = np.random.default_rng(1)
        b = rng.normal(size=(8, 8))
        eligible = [_sreq(i, gemm_request(rng.normal(size=(8, 8)), b)) for i in (0, 2)]
        plain = _sreq(
            1,
            OperationRequest(
                task_id=1,
                opcode=Opcode.ADD,
                inputs=(np.ones((4, 4)), np.ones((4, 4))),
                quant=QuantMode.SCALE,
            ),
        )
        groups = coalesce([eligible[0], plain, eligible[1]])
        assert [[s.serve_id for s in g] for g in groups] == [[0, 2], [1]]


class TestCoalescedLowering:
    def test_rejects_mixed_groups(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
        bad = [gemm_request(a, b), gemm_request(a, b, quant=QuantMode.GLOBAL)]
        with pytest.raises(TensorizerError):
            Tensorizer().lower_gemm_coalesced(bad)

    def test_rejects_different_model_operands(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(8, 8))
        bad = [
            gemm_request(a, rng.normal(size=(8, 8))),
            gemm_request(a, rng.normal(size=(8, 8))),
        ]
        with pytest.raises(TensorizerError):
            Tensorizer().lower_gemm_coalesced(bad)

    @given(
        m=st.integers(2, 70),
        k=st.integers(2, 70),
        n=st.integers(2, 70),
        n_requests=st.integers(2, 4),
        style=st.sampled_from(["normal", "integers", "constant"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_coalesced_results_bit_identical_to_solo(
        self, m, k, n, n_requests, style, seed
    ):
        rng = np.random.default_rng(seed)

        def matrix(shape):
            if style == "integers":
                return rng.integers(-50, 50, size=shape).astype(np.float64)
            if style == "constant":
                return np.full(shape, 2.5)
            return rng.normal(size=shape) * 4

        b = matrix((k, n))
        requests = [
            gemm_request(matrix((m, k)), b, tenant=f"t{i}")
            for i in range(n_requests)
        ]
        coalesced = Tensorizer().lower_gemm_coalesced(requests)
        assert len(coalesced) == len(requests)
        for request, op in zip(requests, coalesced):
            solo = Tensorizer().lower(request)
            got = np.asarray(op.result)
            want = np.asarray(solo.result)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            # The lowered stream stays per-request (demultiplexed).
            assert op.request is request


class TestServedGroupFailure:
    def test_one_bad_operand_fails_only_its_request(self):
        # Four clients share B and land in one serving window; one of
        # them sends a NaN.  Only that request may fail: the others are
        # lowered alone and arrive bit-identical to their solo lowering.
        rng = np.random.default_rng(5)
        b = rng.normal(size=(32, 32))
        requests = [
            gemm_request(rng.normal(size=(32, 32)), b, tenant=f"t{i}")
            for i in range(4)
        ]
        requests[2].inputs[0][0, 0] = np.nan
        platform = Platform.with_tpus(2)

        async def main():
            async with TpuServer(platform, ServeConfig(time_scale=0.0)) as server:
                # No await between submits: all four share one drain.
                futures = [server.submit_nowait(r) for r in requests]
                outcomes = await asyncio.gather(*futures, return_exceptions=True)
                return outcomes, server.snapshot()

        outcomes, snap = asyncio.run(main())
        assert isinstance(outcomes[2], ServingError)
        assert "non-finite" in str(outcomes[2])
        reference = Tensorizer(platform.config.edgetpu, cpu=platform.cpu)
        for i in (0, 1, 3):
            want = reference.lower(requests[i]).result
            assert np.asarray(outcomes[i]).tobytes() == np.asarray(want).tobytes()
        assert snap["outcomes"]["completed"] == 3
        assert snap["outcomes"]["lost"] == 0
