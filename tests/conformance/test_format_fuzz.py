"""Model-format mutation fuzzer: reject-or-roundtrip, typed errors."""

import numpy as np
import pytest

from repro.conformance import MUTATIONS, run_fuzz
from repro.conformance.format_fuzz import (
    PLAN_MUTATIONS,
    _fresh_blob,
    _fresh_plan_blob,
    _mutate,
    _mutate_plan,
    run_plan_fuzz,
)
from repro.conformance.oracles import derive_rng
from repro.edgetpu.model_format import parse_model, serialize_model
from repro.errors import ModelFormatError, ModelSizeMismatchError
from repro.plan import parse_plan, serialize_plan


class TestFuzzCampaign:
    def test_default_campaign_holds_the_property(self):
        report = run_fuzz(seed=3, iterations=300)
        assert report.ok, report.violations
        assert report.iterations == 300
        assert report.rejected + report.roundtripped == 300

    def test_campaign_is_seed_deterministic(self):
        assert run_fuzz(seed=9, iterations=120).as_dict() == run_fuzz(
            seed=9, iterations=120
        ).as_dict()

    def test_different_seeds_take_different_paths(self):
        a = run_fuzz(seed=1, iterations=120).as_dict()
        b = run_fuzz(seed=2, iterations=120).as_dict()
        assert a["by_mutation"] != b["by_mutation"]

    def test_size_field_mutations_raise_the_typed_subclass(self):
        report = run_fuzz(seed=5, iterations=300)
        assert report.ok, report.violations
        assert report.by_mutation.get("size-field", 0) > 0
        assert report.typed_size_errors >= report.by_mutation["size-field"]

    def test_identity_mutations_always_roundtrip(self):
        rng = derive_rng(0, "fuzz-test")
        for _ in range(20):
            blob = _mutate(_fresh_blob(rng), "identity", rng)
            parsed = parse_model(blob)
            assert serialize_model(parsed.data, parsed.params) == blob

    def test_every_mutation_operator_is_exercised(self):
        report = run_fuzz(seed=3, iterations=400)
        assert set(report.by_mutation) == set(MUTATIONS)


class TestMutationOperators:
    @pytest.mark.parametrize("mutation", ["magic", "version", "reserved-header"])
    def test_header_mutations_are_rejected(self, mutation):
        rng = derive_rng(1, "fuzz-test", mutation)
        for _ in range(10):
            with pytest.raises(ModelFormatError):
                parse_model(_mutate(_fresh_blob(rng), mutation, rng))

    def test_size_field_mutation_is_a_size_mismatch(self):
        rng = derive_rng(2, "fuzz-test", "size-field")
        for _ in range(10):
            with pytest.raises(ModelSizeMismatchError):
                parse_model(_mutate(_fresh_blob(rng), "size-field", rng))

    def test_data_byte_flips_roundtrip_byte_exactly(self):
        rng = derive_rng(3, "fuzz-test", "data-byte")
        for _ in range(10):
            blob = _mutate(_fresh_blob(rng), "data-byte", rng)
            parsed = parse_model(blob)
            assert serialize_model(parsed.data, parsed.params) == blob


class TestPlanFuzzCampaign:
    """Satellite 3: the same contract over compiled-plan blobs."""

    def test_default_campaign_holds_the_property(self):
        report = run_plan_fuzz(seed=3, iterations=300)
        assert report.ok, report.violations
        assert report.iterations == 300
        assert report.rejected + report.roundtripped == 300
        assert report.rejected > 0 and report.roundtripped > 0

    def test_campaign_is_seed_deterministic(self):
        assert run_plan_fuzz(seed=9, iterations=100).as_dict() == run_plan_fuzz(
            seed=9, iterations=100
        ).as_dict()

    def test_every_plan_mutation_operator_is_exercised(self):
        report = run_plan_fuzz(seed=3, iterations=400)
        assert set(report.by_mutation) == set(PLAN_MUTATIONS)

    def test_size_field_mutations_raise_the_typed_subclass(self):
        report = run_plan_fuzz(seed=5, iterations=300)
        assert report.ok, report.violations
        assert report.by_mutation.get("size-field", 0) > 0
        assert report.typed_size_errors >= report.by_mutation["size-field"]


class TestPlanMutationOperators:
    @pytest.mark.parametrize("mutation", ["magic", "version", "reserved-header"])
    def test_header_mutations_are_rejected(self, mutation):
        rng = derive_rng(1, "plan-fuzz-test", mutation)
        for _ in range(10):
            with pytest.raises(ModelFormatError):
                parse_plan(_mutate_plan(_fresh_plan_blob(rng), mutation, rng))

    def test_size_field_mutation_is_a_size_mismatch(self):
        rng = derive_rng(2, "plan-fuzz-test", "size-field")
        for _ in range(10):
            with pytest.raises(ModelSizeMismatchError):
                parse_plan(_mutate_plan(_fresh_plan_blob(rng), "size-field", rng))

    def test_identity_plans_always_roundtrip(self):
        rng = derive_rng(0, "plan-fuzz-test")
        for _ in range(20):
            blob = _mutate_plan(_fresh_plan_blob(rng), "identity", rng)
            assert serialize_plan(parse_plan(blob)) == blob

    def test_opname_mutations_are_rejected(self):
        # Canonical wire opnames (pool, softmax, conv2D, ...) are
        # case-sensitive; a case-flipped opname must raise typed.
        rng = derive_rng(4, "plan-fuzz-test", "opname")
        for _ in range(10):
            with pytest.raises(ModelFormatError, match="device opcode"):
                parse_plan(_mutate_plan(_fresh_plan_blob(rng), "opname", rng))

    def test_macro_opname_plan_is_rejected(self):
        # conv2D_nn is a host-level macro with no wire form: a plan blob
        # that names it (at the plan or instruction-record level) must
        # never parse into something the executor could bind.
        from repro.plan import CompiledPlan

        plan = CompiledPlan(
            signature="plan-v1|macro", kind="generic",
            opname="conv2D_nn",
        )
        with pytest.raises(ModelFormatError, match="device opcode"):
            parse_plan(serialize_plan(plan))

    def test_nn_opnames_roundtrip(self):
        # pool/softmax plans are first-class citizens of the blob format.
        from repro.plan import CompiledPlan

        for opname in ("pool", "softmax"):
            plan = CompiledPlan(
                signature=f"plan-v1|{opname}", kind="generic",
                opname=opname,
            )
            blob = serialize_plan(plan)
            assert parse_plan(blob).opname == opname
            assert serialize_plan(parse_plan(blob)) == blob
