"""Tests for the comparison-GPU models (paper §9.4, Table 6)."""

import numpy as np
import pytest

from repro.host.gpu import (
    JETSON_NANO_APP_SPEEDUPS,
    JETSON_NANO_MODEL,
    RTX_2080_APP_SPEEDUPS,
    RTX_2080_MODEL,
)


class TestCalibration:
    def test_rtx_mean_speedup_matches_published_364(self):
        assert np.mean(list(RTX_2080_APP_SPEEDUPS.values())) == pytest.approx(364, rel=0.02)

    def test_jetson_mean_speedup_matches_published_1_15(self):
        assert np.mean(list(JETSON_NANO_APP_SPEEDUPS.values())) == pytest.approx(1.15, rel=0.05)

    def test_table6_static_facts(self):
        assert RTX_2080_MODEL.config.cost_usd == pytest.approx(699.66)
        assert RTX_2080_MODEL.config.active_power_watts == 215.0
        assert JETSON_NANO_MODEL.config.cost_usd == pytest.approx(123.99)
        assert JETSON_NANO_MODEL.config.active_power_watts == 10.0


class TestTiming:
    def test_app_seconds_divides_by_speedup(self):
        t = RTX_2080_MODEL.app_seconds("gemm", 115.0)
        assert t == pytest.approx(115.0 / RTX_2080_APP_SPEEDUPS["gemm"])

    def test_unknown_app_uses_mean(self):
        t = RTX_2080_MODEL.app_seconds("mystery", 364.0)
        assert t == pytest.approx(1.0)

    def test_app_names_case_insensitive(self):
        assert RTX_2080_MODEL.speedup("GEMM") == RTX_2080_MODEL.speedup("gemm")

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            RTX_2080_MODEL.app_seconds("gemm", -1.0)

    def test_jetson_slower_than_rtx_everywhere(self):
        for app in RTX_2080_APP_SPEEDUPS:
            assert JETSON_NANO_MODEL.speedup(app) < RTX_2080_MODEL.speedup(app)

