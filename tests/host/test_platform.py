"""Tests for platform assembly."""

import pytest

from repro.config import SystemConfig
from repro.host.platform import Platform


def test_default_platform_has_eight_tpus():
    platform = Platform()
    assert platform.num_tpus == 8
    assert [d.name for d in platform.devices] == [f"tpu{i}" for i in range(8)]


def test_with_tpus_builds_smaller_machines():
    for n in (1, 2, 4):
        platform = Platform.with_tpus(n)
        assert platform.num_tpus == n
        assert platform.topology.num_tpus == n


def test_devices_share_one_timing_model():
    platform = Platform()
    assert all(d.timing is platform.timing for d in platform.devices)


def test_clock_starts_at_zero():
    assert Platform().now == 0.0


def test_trace_can_be_disabled():
    platform = Platform(trace=False)
    platform.tracer.record(0.0, 1.0, "transfer", "tpu0")
    assert len(platform.tracer) == 0


def test_busy_by_unit_reads_trace():
    platform = Platform()
    platform.tracer.record(0.0, 2.0, "instruction", "tpu0")
    platform.tracer.record(1.0, 2.0, "cpu_aggregate", "cpu-core")
    busy = platform.busy_by_unit()
    assert busy == {"tpu0": 2.0, "cpu-core": 1.0}


def test_custom_config_respected():
    config = SystemConfig().with_tpus(3)
    platform = Platform(config)
    assert platform.config.num_edge_tpus == 3
    assert platform.num_tpus == 3
