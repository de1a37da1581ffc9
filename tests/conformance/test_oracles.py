"""Three-oracle harness: bit-identity, envelopes, seed derivation."""

import numpy as np
import pytest

from repro import ops
from repro.conformance import (
    APP_PARAMS,
    OP_CASES,
    derive_rng,
    run_oracles,
)
from repro.conformance.oracles import app_oracles, pipeline_context, scalar_context
from repro.conformance.reference import ReferenceTensorizer
from repro.runtime.tensorizer import Tensorizer
from repro.apps import all_applications
from repro.metrics.errors import ErrorBound, bound_for_app, bound_for_op


class TestDeriveRng:
    def test_same_path_same_stream(self):
        a = derive_rng(3, "ops", "gemm").integers(0, 2**31, size=8)
        b = derive_rng(3, "ops", "gemm").integers(0, 2**31, size=8)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_or_path_diverges(self):
        base = derive_rng(3, "ops", "gemm").integers(0, 2**31, size=8)
        other_seed = derive_rng(4, "ops", "gemm").integers(0, 2**31, size=8)
        other_path = derive_rng(3, "ops", "matvec").integers(0, 2**31, size=8)
        assert not np.array_equal(base, other_seed)
        assert not np.array_equal(base, other_path)


class TestOracleHarness:
    def test_contexts_differ_only_in_vectorization(self):
        assert type(scalar_context().tensorizer) is ReferenceTensorizer
        assert type(pipeline_context().tensorizer) is Tensorizer

    def test_gemm_outcome_is_bit_identical_and_in_envelope(self):
        rng = derive_rng(0, "test", "gemm")
        a = rng.normal(size=(66, 97)) * 3.0
        b = rng.normal(size=(97, 63)) * 3.0
        outcome = run_oracles(
            lambda ctx: ops.tpu_gemm(ctx, a, b), a @ b, bound_for_op("gemm")
        )
        assert outcome.bit_identical
        assert outcome.check.ok
        assert outcome.ok
        assert outcome.instructions > 0

    def test_violated_bound_fails_outcome_but_not_bit_identity(self):
        rng = derive_rng(0, "test", "tight")
        a = rng.normal(size=(40, 40)) * 3.0
        b = rng.normal(size=(40, 40)) * 3.0
        impossible = ErrorBound(1e-9, 1e-9, 1e-9, "test")
        outcome = run_oracles(
            lambda ctx: ops.tpu_gemm(ctx, a, b), a @ b, impossible
        )
        assert outcome.bit_identical
        assert not outcome.check.ok
        assert not outcome.ok

    def test_every_case_has_a_codified_bound(self):
        for case in OP_CASES:
            assert bound_for_op(case.family) is not None

    def test_case_names_are_unique(self):
        names = [case.name for case in OP_CASES]
        assert len(names) == len(set(names))

    def test_unknown_family_raises_with_known_keys(self):
        with pytest.raises(KeyError, match="gemm"):
            bound_for_op("nonsense")


class TestAppOracles:
    def test_every_conformance_app_has_params_and_bound(self):
        apps = all_applications()
        for name in APP_PARAMS:
            assert name in apps
            assert bound_for_app(name) is not None

    def test_gemm_app_three_oracle_run(self):
        app = all_applications()["gemm"]
        inputs = app.generate(seed=5, n=96)
        outcome, cpu_res, pipe_res = app_oracles(
            app, inputs, bound_for_app("gemm")
        )
        assert outcome.bit_identical
        assert outcome.check.ok
        assert pipe_res.instructions > 0
