"""Tests for the trace profiler."""

import numpy as np
import pytest

from repro.bench.profile import ProfileReport, format_profile, profile_trace
from repro.host.platform import Platform
from repro.ops import tpu_add, tpu_gemm
from repro.runtime import OpenCtpu
from repro.sim.trace import Tracer


def run_gemm(tpus=2, n=256):
    platform = Platform.with_tpus(tpus)
    ctx = OpenCtpu(platform)
    a = np.random.default_rng(0).uniform(0, 4, (n, n))
    tpu_gemm(ctx, a, a)
    ctx.sync()
    return platform


class TestProfileTrace:
    def test_basic_aggregation(self):
        tracer = Tracer()
        tracer.record(0.0, 1.0, "instruction", "tpu0", opcode="conv2D", count=3)
        tracer.record(0.5, 2.0, "transfer", "tpu0")
        tracer.record(0.0, 0.5, "model_build", "cpu-core")
        report = profile_trace(tracer)
        assert report.wall_seconds == 2.0
        assert report.kind_seconds["instruction"] == 1.0
        assert report.kind_seconds["transfer"] == 1.5
        assert report.opcode_counts["conv2D"] == 3
        assert max(report.opcode_seconds, key=report.opcode_seconds.get) == "conv2D"

    def test_transfer_fraction(self):
        tracer = Tracer()
        tracer.record(0.0, 1.0, "instruction", "tpu0", opcode="add")
        tracer.record(0.0, 3.0, "transfer", "tpu0")
        assert profile_trace(tracer).transfer_fraction == pytest.approx(0.75)

    def test_utilization_bounded(self):
        platform = run_gemm()
        report = profile_trace(platform.tracer)
        assert 0.0 < report.tpu_utilization <= 1.0

    def test_since_filters_old_records(self):
        tracer = Tracer()
        tracer.record(0.0, 1.0, "instruction", "tpu0", opcode="add")
        tracer.record(5.0, 6.0, "instruction", "tpu0", opcode="mul")
        report = profile_trace(tracer, since=4.0)
        assert set(report.opcode_seconds) == {"mul"}

    def test_empty_trace(self):
        report = profile_trace(Tracer())
        assert report.wall_seconds == 0.0
        assert report.tpu_utilization == 0.0
        assert report.transfer_fraction == 0.0
        assert report.opcode_seconds == {}

    def test_real_gemm_profile_shape(self):
        platform = run_gemm()
        report = profile_trace(platform.tracer)
        assert max(report.opcode_seconds, key=report.opcode_seconds.get) == "conv2D"
        assert report.opcode_counts["conv2D"] >= 1
        assert "model_build" in report.kind_seconds

    def test_format_profile_renders(self):
        platform = run_gemm()
        text = format_profile(profile_trace(platform.tracer))
        assert "TPU utilization" in text
        assert "conv2D" in text
        assert "tpu0" in text


def test_cli_profile_command(capsys, tmp_path):
    from repro.cli import main

    trace_path = tmp_path / "t.json"
    assert main(["profile", "gemm", "--param", "n=96", "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "TPU utilization" in out
    assert trace_path.exists()
