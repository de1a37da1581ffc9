"""Tests for the experiment harness and report formatting."""

import numpy as np
import pytest

from repro.errors import BenchmarkError
from repro.bench.harness import AppRunRecord, mean_speedup, run_app, run_suite
from repro.bench.reporting import comparison_table, format_table


class TestRunApp:
    def test_unknown_app_rejected(self):
        with pytest.raises(BenchmarkError, match="unknown application"):
            run_app("doom")

    def test_record_fields_consistent(self):
        record = run_app("gemm", params={"n": 96})
        assert record.name == "gemm"
        assert record.num_tpus == 1
        assert record.cpu_seconds > 0
        assert record.gptpu.wall_seconds > 0
        assert record.speedup == pytest.approx(record.cpu_seconds / record.gptpu.wall_seconds)
        assert 0 < record.energy_ratio
        assert 0 < record.edp_ratio
        assert record.rmse_percent < 1.5

    def test_params_override_default(self):
        small = run_app("gemm", params={"n": 64})
        large = run_app("gemm", params={"n": 256})
        assert large.cpu_seconds > small.cpu_seconds

    def test_num_tpus_passed_through(self):
        record = run_app("gemm", num_tpus=4, params={"n": 256})
        assert record.num_tpus == 4

    def test_deterministic_for_fixed_seed(self):
        r1 = run_app("gemm", params={"n": 96}, seed=5)
        r2 = run_app("gemm", params={"n": 96}, seed=5)
        assert r1.gptpu.wall_seconds == pytest.approx(r2.gptpu.wall_seconds)
        assert r1.rmse_percent == pytest.approx(r2.rmse_percent)


class TestSuiteAggregates:
    def _fake(self, name, speed):
        from repro.apps.base import GPTPUResult
        from repro.host.energy import EnergyReport

        energy = EnergyReport(1.0, 40.0, 1.0)
        gptpu = GPTPUResult(np.zeros(1), 1.0, energy, 1, 1)
        return AppRunRecord(name, 1, speed, EnergyReport(speed, 40 * speed, 11 * speed),
                            gptpu, 0.0, 0.0)

    def test_mean_and_geomean(self):
        records = {"a": self._fake("a", 2.0), "b": self._fake("b", 8.0)}
        assert mean_speedup(records) == pytest.approx(5.0)


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table(["col", "x"], [("a", 1.0), ("bbbb", 22.5)], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[1] and "x" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [("only-one",)])

    def test_comparison_table_computes_deviation(self):
        out = comparison_table("T", [("exp", 2.0, 2.2)])
        assert "+10.0%" in out

    def test_comparison_table_handles_missing_paper_value(self):
        out = comparison_table("T", [("exp", None, 1.5)])
        assert "-" in out

    def test_float_formatting(self):
        out = format_table(["v"], [(0.000123,), (12345.6,), (0.0,)])
        assert "0.000123" in out
        assert "1.23e+04" in out
        assert "0.00" in out
