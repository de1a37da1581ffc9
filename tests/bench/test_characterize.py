"""Tests for the §3.2 characterization harness."""

import pytest

from repro.bench import (
    characterize_all,
    characterize_extensions,
    characterize_op,
    measure_data_exchange,
)
from repro.edgetpu.isa import Opcode


class TestCharacterizeOp:
    def test_every_opcode_measurable(self):
        # Table 1 and the extension table together cover every device
        # instruction, each exactly once.
        rows = characterize_all() + characterize_extensions()
        expected = [op.opname for op in Opcode if not op.is_macro]
        assert [r.opname for r in rows] == expected

    def test_table1_is_the_papers_eleven_instructions(self):
        names = [r.opname for r in characterize_all()]
        assert len(names) == 11
        assert "pool" not in names and "softmax" not in names

    def test_pool_and_softmax_recover_extension_rates(self):
        rows = characterize_extensions()
        assert [r.opname for r in rows] == ["pool", "softmax"]
        for row in rows:
            assert row.ops_error_percent < 1.0, row.opname
            assert row.rps_error_percent < 1.0, row.opname

    def test_measurement_recovers_table1(self):
        for row in characterize_all():
            assert row.ops_error_percent < 1.0, row.opname
            assert row.rps_error_percent < 1.0, row.opname

    def test_two_phase_loop_cancels_transfer(self):
        # With a doubled repeat count the difference-quotient is
        # transfer-free, so the result is stable across loop lengths.
        r1 = characterize_op(Opcode.ADD, n1=1_000, n2=2_000)
        r2 = characterize_op(Opcode.ADD, n1=50_000, n2=100_000)
        assert r1.ops == pytest.approx(r2.ops, rel=1e-6)

    def test_rows_carry_descriptions(self):
        row = characterize_op(Opcode.CONV2D)
        assert "Convolution" in row.description

    def test_reduction_rps_equals_ops(self):
        # mean/max produce one value per instruction (Table 1).
        for op in (Opcode.MEAN, Opcode.MAX):
            row = characterize_op(op)
            assert row.rps == pytest.approx(row.ops, rel=1e-9)


class TestDataExchange:
    def test_sweep_covers_onchip_memory(self):
        points = measure_data_exchange()
        sizes = [s for s, _ in points]
        assert max(sizes) == 8 * 1024 * 1024

    def test_rate_is_flat(self):
        points = measure_data_exchange()
        rates = [s / t for s, t in points]
        assert max(rates) / min(rates) < 1.1
