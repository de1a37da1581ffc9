"""Smoke tests for the end-to-end benchmark.

Run with ``pytest benchmarks/e2e`` (not part of the tier-1 suite).  Each
workload runs at about 200 requests, or one batch-apps pass.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMOKE_SECONDS = {"serve-steady": 0.4, "serve-saturate": 0.1, "mp-steady": 0.7, "batch-apps": 1.0}
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def bench(out: Path, workload: str, trace: int = 0):
    """Run the benchmark command; returns (metric lines, summary, results entry)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", str(SMOKE_SECONDS[workload]), "--trace", str(trace),
         "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    results = json.loads(next(out.glob("results-*.json")).read_text())
    return lines[:-1], json.loads(lines[-1]), results["workloads"][workload]


def check_names(workload, lines, summary, declared):
    """Printed lines and the summary carry exactly the declared metrics."""
    assert list(summary["metrics"]) == declared
    assert [line.split()[:2] for line in lines] == [[workload, name] for name in declared]
    assert all(METRIC_NAME.fullmatch(name) for name in declared)


@pytest.mark.parametrize("workload", ["serve-steady", "mp-steady", "batch-apps"])
def test_end_to_end_metrics_match_spec(tmp_path, workload):
    lines, summary, _ = bench(tmp_path, workload)
    assert summary["correct"] and summary["failed"] == 0
    check_names(workload, lines, summary, END_TO_END)
    assert all(entry["value"] > 0 for entry in summary["metrics"].values())


def test_saturate_is_reproducible_and_traced(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from repro.telemetry.export import validate_chrome_trace

    lines, summary, plain = bench(tmp_path / "plain", "serve-saturate")
    check_names("serve-saturate", lines, summary, END_TO_END)
    lines, summary, traced = bench(tmp_path / "traced", "serve-saturate", trace=1)
    check_names("serve-saturate", lines, summary, PER_LAYER)
    assert traced["missing_patch_points"] == []
    assert validate_chrome_trace(str(tmp_path / "traced" / "trace-serve-saturate.json")) == []
    runs = [plain["repeats"][0], *traced["repeats"][0].values()]
    for key in ("outcomes", "digest", "model_p50_s", "model_p99_s", "joules_per_req"):
        assert len({json.dumps(run[key]) for run in runs}) == 1, key


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serve-steady", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
