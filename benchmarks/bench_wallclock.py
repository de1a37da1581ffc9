"""Host wall-clock benchmark of the lowering/execution stack itself.

Unlike the Fig. 6–9 benchmarks, which report *simulated* Edge TPU time,
this file measures how long the simulator takes on the host: the real
seconds ``Tensorizer.lower`` (functional execution included) spends on
GEMMs of 512/1024/2048, for both the production Tensorizer and the
per-tile conformance reference
(``repro.conformance.reference.ReferenceTensorizer``).
Results land in ``BENCH_wallclock.json`` at the repo root so future
changes have a perf trajectory to regress against; see
``docs/performance.md`` for how to read it.

Run with::

    PYTHONPATH=src python benchmarks/bench_wallclock.py
    PYTHONPATH=src python -m pytest benchmarks/bench_wallclock.py -m slow

The pytest entry is marked ``slow`` (several minutes of reference
lowering) and is excluded from the tier-1 run.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Dict

import numpy as np
import pytest

from repro.conformance.reference import ReferenceTensorizer
from repro.edgetpu.isa import Opcode
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import Tensorizer

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_wallclock.json"

GEMM_SIZES = (512, 1024, 2048)


def _gemm_request(a: np.ndarray, b: np.ndarray) -> OperationRequest:
    """The request ``tpu_gemm(method="conv2d")`` hands the Tensorizer."""
    return OperationRequest(
        task_id=0,
        opcode=Opcode.CONV2D,
        inputs=(a, b),
        quant=QuantMode.SCALE,
        attrs={"gemm": True},
        input_name="bench",
    )


def time_gemm_lowering(n: int, vectorized: bool, reps: int = 3) -> float:
    """Best-of-*reps* host seconds to lower one n×n×n ``tpu_gemm``."""
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    tz = Tensorizer() if vectorized else ReferenceTensorizer()
    best = float("inf")
    for _ in range(reps):
        request = _gemm_request(a.copy(), b.copy())
        start = time.perf_counter()
        tz.lower(request)
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark() -> Dict:
    gemm = {}
    for n in GEMM_SIZES:
        vec = time_gemm_lowering(n, vectorized=True)
        scalar = time_gemm_lowering(n, vectorized=False)
        gemm[str(n)] = {
            "vectorized_seconds": round(vec, 4),
            "scalar_seconds": round(scalar, 4),
            "speedup": round(scalar / vec, 2),
        }
    return {
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "metric": "host wall-clock seconds (not simulated device time)",
        "gemm_lowering": gemm,
        "criterion_speedup_2048_gemm_lowering": gemm["2048"]["speedup"],
    }


def write_results(results: Dict) -> None:
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")


@pytest.mark.slow
def test_wallclock_bench(report):
    results = run_benchmark()
    write_results(results)
    report(json.dumps(results, indent=2))
    # Acceptance floor: the production path must beat the per-tile
    # reference by >= 5x on the flagship 2048 GEMM lowering.
    assert results["criterion_speedup_2048_gemm_lowering"] >= 5.0


if __name__ == "__main__":
    out = run_benchmark()
    write_results(out)
    print(json.dumps(out, indent=2))
    print(f"\nwrote {RESULT_PATH}")
