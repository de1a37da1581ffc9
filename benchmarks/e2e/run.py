"""The end-to-end benchmark: one command for every workload and metric.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 7 [--workload NAME] [--seconds S]
        [--repeats N] [--trace 0|1] [--out DIR]

Each run of a workload is a fresh process (``workloads.py``) with BLAS
and OpenMP pinned to one thread.  Workload names, metric names, units,
directions and bounds all come from ``BENCHMARK.json`` at the root.

Output, one line per metric: ``workload metric value unit`` (the median
over ``--repeats``).  With ``--trace 0`` the metrics are the end-to-end
ones; ``--trace 1`` reruns each workload with wrappers around every
layer boundary in ``layers.py`` and reports the per-layer metrics
instead, writing spans to ``DIR/trace-<workload>.json``.  Every
invocation writes one results file to ``DIR`` (per-repeat values,
median and IQR of every metric, plus an environment fingerprint), and
its last line is a JSON summary.  The exit code is non-zero when any
output check fails or a run does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
#: Unpinned OpenBLAS spends two to three times the CPU on the same run.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Bounds each workload run (one child process).  A single-workload
#: invocation, which runs one child per repeat, must end within 180 s.
CHILD_TIMEOUT_SECONDS = 170


def iqr(values: List[float]) -> float:
    """Distance between the first and third quartiles."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def fingerprint() -> dict:
    """Where the numbers came from: commit, machine and library versions."""
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pins": dict(THREAD_PINS),
    }


def run_child(workload: str, args: argparse.Namespace, trace_file: Path) -> Optional[dict]:
    """One workload run in a fresh process; None when it fails."""
    env = dict(os.environ, **THREAD_PINS, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    # Started with -c, not as a script: a spawned MpTpuServer worker
    # re-runs the parent's main *file*, which would charge the
    # benchmark's own imports to the server's set-up.
    command = [
        sys.executable, "-c", "import sys, workloads; sys.exit(workloads.main())",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-file", str(trace_file),
    ]
    try:
        proc = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_SECONDS,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_SECONDS} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: run failed with exit code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def summarize(runs: List[dict], declared: List[dict], trace: int) -> dict:
    """Merge the repeats of one workload into its results entry."""
    key = "per_layer" if trace else "end_to_end"
    violations = [v for run in runs for v in run["violations"]]
    metrics: Dict[str, dict] = {}
    for spec in declared:
        values = [run[key][spec["name"]] for run in runs if spec["name"] in run[key]]
        if len(values) != len(runs):
            violations.append(f"metric {spec['name']} was not reported")
            continue
        entry = {k: v for k, v in spec.items() if k != "name"}
        entry.update(values=values, median=statistics.median(values), iqr=iqr(values))
        metrics[spec["name"]] = entry
    extra = sorted(set(runs[0][key]) - {spec["name"] for spec in declared})
    if extra:
        violations.append(f"metrics not declared in BENCHMARK.json: {extra}")
    result = {
        "correct": not violations,
        "violations": violations,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
        "repeats": [run["diagnostics"] for run in runs],
    }
    if trace:
        result["missing_patch_points"] = sorted(
            {point for run in runs for point in run["missing_patch_points"]}
        )
    return result


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.repeats < 1 or args.seconds <= 0:
        parser.error("--repeats must be >= 1 and --seconds > 0")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    args.out.mkdir(parents=True, exist_ok=True)
    workloads = [args.workload] if args.workload else names
    results: Dict[str, dict] = {}
    for workload in workloads:
        runs = []
        for _ in range(args.repeats):
            run = run_child(workload, args, args.out / f"trace-{workload}.json")
            if run is None:
                return 1
            runs.append(run)
        results[workload] = summarize(runs, declared, args.trace)
        for name, entry in results[workload]["metrics"].items():
            print(f"{workload} {name} {entry['median']!r} {entry['unit']}")
        for violation in results[workload]["violations"]:
            print(f"{workload} VIOLATION {violation}", file=sys.stderr)

    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    label = args.workload or "all"
    path = args.out / f"results-{label}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps({
        "schema": 1,
        "created_utc": stamp,
        "args": {k: v for k, v in vars(args).items() if k != "out"},
        "env": fingerprint(),
        "workloads": results,
    }, indent=1) + "\n")

    correct = all(r["correct"] for r in results.values())
    if args.workload:
        metrics = {
            name: {"value": e["median"], "unit": e["unit"]}
            for name, e in results[args.workload]["metrics"].items()
        }
    else:
        metrics = {
            f"{w}.{name}": {"value": e["median"], "unit": e["unit"]}
            for w, r in results.items() for name, e in r["metrics"].items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
