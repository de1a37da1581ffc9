"""Tests for the CPU core cost model and OpenMP scaling."""

import pytest

from repro.config import CPUConfig
from repro.host.cpu import CPUCoreModel, openmp_speedup


@pytest.fixture()
def cpu():
    return CPUCoreModel()


class TestKernelCosts:
    def test_gemm_counts_2mnk_flops(self, cpu):
        t = cpu.gemm_seconds(100, 200, 300)
        assert t == pytest.approx(2 * 100 * 200 * 300 / cpu.config.sgemm_flops)

    def test_gemm_cubic_scaling(self, cpu):
        assert cpu.gemm_seconds(2048, 2048, 2048) / cpu.gemm_seconds(1024, 1024, 1024) == pytest.approx(8.0)

    def test_elementwise_touches_three_arrays(self, cpu):
        t = cpu.elementwise_seconds(1000)
        assert t == pytest.approx(12_000 / cpu.config.stream_bytes_per_sec)

    def test_stencil_and_scalar_and_transcendental_positive(self, cpu):
        assert cpu.stencil_seconds(10**6) > 0
        assert cpu.scalar_seconds(10**6) > 0
        assert cpu.transcendental_seconds(10**6) > 0

    def test_transcendental_much_slower_than_stream(self, cpu):
        # One CNDF evaluation is far more expensive than streaming a float.
        per_eval = cpu.transcendental_seconds(1)
        per_float = cpu.stream_seconds(4)
        assert per_eval > 10 * per_float

    def test_aggregate_cost_is_small(self, cpu):
        # §6.2.1: CPU-side aggregation "requires very short latency".
        assert cpu.aggregate_seconds(128 * 128) < 1e-4

    def test_negative_work_rejected(self, cpu):
        for method in (cpu.gemm_seconds,):
            with pytest.raises(ValueError):
                method(-1, 1, 1)
        with pytest.raises(ValueError):
            cpu.stream_seconds(-1)


class TestOpenMPScaling:
    def test_single_core_is_unity(self):
        assert openmp_speedup(1) == pytest.approx(1.0)

    def test_eight_cores_match_paper(self):
        # Fig. 8(a): 8-core OpenMP reaches 2.70x.
        assert openmp_speedup(8) == pytest.approx(2.70, rel=1e-6)

    def test_speedup_monotonic_but_sublinear(self):
        speeds = [openmp_speedup(n) for n in range(1, 9)]
        assert all(b > a for a, b in zip(speeds, speeds[1:]))
        assert all(s < n for n, s in zip(range(2, 9), speeds[1:]))

    def test_parallel_seconds_uses_scaling(self):
        cpu = CPUCoreModel()
        t1 = 10.0
        assert cpu.parallel_seconds(t1, 8) == pytest.approx(10.0 / 2.70, rel=1e-6)

    def test_invalid_cores_rejected(self):
        with pytest.raises(ValueError):
            openmp_speedup(0)

    def test_custom_config_changes_target(self):
        config = CPUConfig(openmp_8core_speedup=4.0)
        assert openmp_speedup(8, config) == pytest.approx(4.0)
