"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import main


def test_characterize_prints_table1(capsys):
    assert main(["characterize"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    for opname in ("conv2D", "FullyConnected", "ReLu", "pool", "softmax"):
        assert opname in out
    assert "NN extension" in out
    assert "Data exchange" in out


def test_run_single_app(capsys):
    assert main(["run", "gemm", "--param", "n=96"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "RMSE" in out
    assert "PCIe bytes" in out


def test_run_with_tpus_and_seed(capsys):
    assert main(["run", "gemm", "--tpus", "4", "--param", "n=96", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "GPTPU (4 TPU)" in out


def test_profile_prints_span_attribution(capsys):
    assert main(["profile", "gemm", "--param", "n=64"]) == 0
    out = capsys.readouterr().out
    assert "Host span attribution:" in out
    assert "host ms" in out and "device ms" in out
    assert "lower:conv2D" in out


def test_run_unknown_app_rejected():
    with pytest.raises(SystemExit):
        main(["run", "crysis"])


def test_bad_param_rejected():
    with pytest.raises(SystemExit, match="key=value"):
        main(["run", "gemm", "--param", "n"])
    with pytest.raises(SystemExit, match="integers"):
        main(["run", "gemm", "--param", "n=abc"])


def test_table3_lists_all_benchmarks(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    for name in ("GEMM", "PageRank", "HotSpot3D", "BlackScholes"):
        assert name in out
    assert "GiB" in out


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


class TestChromeTraceExport:
    def test_events_have_trace_format_fields(self):
        from repro.sim.trace import Tracer

        tracer = Tracer()
        tracer.record(0.0, 1e-3, "instruction", "tpu0", label="conv", opcode="conv2D")
        events = tracer.to_chrome_trace()
        assert len(events) == 1
        evt = events[0]
        assert evt["ph"] == "X"
        assert evt["ts"] == 0.0
        assert evt["dur"] == pytest.approx(1000.0)
        assert evt["tid"] == "tpu0"
        assert evt["args"]["opcode"] == "conv2D"

    def test_save_round_trips_json(self, tmp_path):
        from repro.sim.trace import Tracer

        tracer = Tracer()
        tracer.record(0.0, 2e-3, "transfer", "tpu1", nbytes=1024)
        path = tmp_path / "trace.json"
        tracer.save_chrome_trace(str(path))
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == 1
        assert data["traceEvents"][0]["args"]["nbytes"] == 1024

    def test_real_run_produces_loadable_trace(self, tmp_path):
        import numpy as np

        from repro.host.platform import Platform
        from repro.ops import tpu_gemm
        from repro.runtime.api import OpenCtpu

        platform = Platform.with_tpus(2)
        ctx = OpenCtpu(platform)
        rng = np.random.default_rng(0)
        tpu_gemm(ctx, rng.uniform(0, 4, (96, 96)), rng.uniform(0, 4, (96, 96)))
        ctx.sync()
        path = tmp_path / "gemm.json"
        platform.tracer.save_chrome_trace(str(path))
        events = json.loads(path.read_text())["traceEvents"]
        kinds = {e["cat"] for e in events}
        assert {"transfer", "instruction", "model_build"} <= kinds


def test_report_command_bundles_results(capsys, tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    (results / "test_alpha.txt").write_text("alpha table\n")
    (results / "test_beta.txt").write_text("beta table\n")
    out_file = tmp_path / "report.md"
    assert main(["report", "--results-dir", str(results), "--output", str(out_file)]) == 0
    body = out_file.read_text()
    assert "## test_alpha" in body and "beta table" in body


def test_report_command_requires_results():
    with pytest.raises(SystemExit, match="not found"):
        main(["report", "--results-dir", "/nonexistent/dir"])


class TestTraceCommand:
    def test_trace_wraps_loadgen_and_validates(self, capsys, tmp_path):
        out = str(tmp_path / "trace.json")
        code = main(
            [
                "trace", "--out", out, "--validate", "--",
                "loadgen", "--tpus", "2", "--tenants", "2",
                "--requests", "2", "--size", "64",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "trace schema: valid" in captured
        assert "perfetto" in captured
        payload = json.loads(open(out).read())
        names = {e["name"] for e in payload["traceEvents"]}
        assert any(n.startswith("lower:") for n in names)
        assert "exec_group" in names

    def test_trace_prints_span_attribution(self, capsys, tmp_path):
        out = str(tmp_path / "trace.json")
        assert main(["trace", "--out", out, "--", "run", "gemm", "--param", "n=64"]) == 0
        captured = capsys.readouterr().out
        assert "Telemetry attribution" in captured
        assert "host ms" in captured and "device ms" in captured
        assert "lower:conv2D" in captured

    def test_trace_needs_a_wrapped_command(self):
        with pytest.raises(SystemExit):
            main(["trace", "--out", "t.json"])

    def test_trace_cannot_wrap_itself(self):
        with pytest.raises(SystemExit):
            main(["trace", "--", "trace", "--", "loadgen"])

    def test_trace_restores_the_default_tracer(self, tmp_path):
        from repro import telemetry

        before = telemetry.get_tracer()
        main(
            [
                "trace", "--out", str(tmp_path / "t.json"), "--",
                "loadgen", "--tpus", "1", "--tenants", "1",
                "--requests", "1", "--size", "32",
            ]
        )
        assert telemetry.get_tracer() is before


class TestNNCommand:
    def test_nn_lenet_prints_per_layer_attribution(self, capsys):
        assert main(["nn", "--model", "lenet", "--tpus", "4",
                     "--batch", "1"]) == 0
        out = capsys.readouterr().out
        for layer in ("conv1", "pool1", "dense3", "softmax", "total"):
            assert layer in out
        assert "output shape: (1, 10)" in out
        assert "predicted classes:" in out
        assert "plan cache:" in out

    def test_nn_attention_runs(self, capsys):
        assert main(["nn", "--model", "attention", "--tpus", "2",
                     "--no-plan-cache"]) == 0
        out = capsys.readouterr().out
        assert "attn" in out
        assert "output shape: (48, 32)" in out
        assert "plan cache:" not in out

    def test_nn_repeat_reports_warm_pass(self, capsys):
        assert main(["nn", "--model", "attention", "--tpus", "2",
                     "--repeat", "2"]) == 0
        assert "plan cache:" in capsys.readouterr().out

    def test_nn_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["nn", "--model", "resnet"])
