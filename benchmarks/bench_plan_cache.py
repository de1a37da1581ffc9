"""AOT compiled-plan cache benchmark: lower once, execute many.

Measures the host wall-clock the plan cache (:mod:`repro.plan`) removes
from the warm path of a 2048^2 ``tpu_gemm``:

* ``fresh_lower_seconds``    — full ``Tensorizer.lower`` with no cache,
  the cost every request pays without AOT plans;
* ``cold_capture_seconds``   — the first lower with a cache attached
  (lowering plus plan capture — the one-time price);
* ``warm_lower_seconds``     — a warm lower end-to-end.  This still
  includes the modeled device math (the slab products that run on the
  Edge TPU on real hardware), so it is *not* the host-work number;
* ``warm_bind_seconds``      — the ``plan_bind`` span: the host work a
  warm request actually performs (input range scan, per-chunk quant
  params, quantizing A, binding instruction templates).  Everything
  else was captured once.

The acceptance criterion (ISSUE 6) is ``host_speedup =
fresh_lower_seconds / warm_bind_seconds >= 5``: replaying a plan must
cut per-request host wall-clock at least 5x versus lowering fresh.
Warm results are asserted bit-identical to the plan-free lowering.

Results land in ``BENCH_plan_cache.json`` at the repo root; see
``docs/performance.md``.

Run with::

    PYTHONPATH=src python benchmarks/bench_plan_cache.py
    PYTHONPATH=src python -m pytest benchmarks/bench_plan_cache.py -m slow
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Dict

import numpy as np
import pytest

from repro.edgetpu.isa import Opcode
from repro.plan.cache import PlanCache
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import Tensorizer
from repro.telemetry.tracer import SpanTracer

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_plan_cache.json"

GEMM_SIZES = (512, 1024, 2048)
WARM_REPS = 5


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


def time_plan_paths(n: int) -> Dict:
    """Fresh / cold-capture / warm timings for one n^2 GEMM shape."""
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))

    # Fresh baseline: no plan cache, every request lowers from scratch.
    fresh_tz = Tensorizer()
    fresh = float("inf")
    for _ in range(3):
        request = _gemm_request(a.copy(), b)
        start = time.perf_counter()
        fresh_result = fresh_tz.lower(request).result
        fresh = min(fresh, time.perf_counter() - start)

    # Plan-cached path: one cold capture, then warm replays.  The
    # tracer's plan_bind span isolates the per-request host work; it
    # stays disabled for the cold capture so fresh and cold timings are
    # both untraced and comparable.
    tracer = SpanTracer()
    cache = PlanCache()
    tz = Tensorizer(
        tracer=tracer,
        plan_cache=cache,
    )
    start = time.perf_counter()
    tz.lower(_gemm_request(a.copy(), b))
    cold = time.perf_counter() - start
    tracer.enable()

    warm = float("inf")
    bind = float("inf")
    warm_result = None
    for _ in range(WARM_REPS):
        mark = len(tracer.spans)
        request = _gemm_request(a.copy(), b)
        start = time.perf_counter()
        warm_result = tz.lower(request).result
        warm = min(warm, time.perf_counter() - start)
        bind_spans = [s for s in tracer.spans[mark:] if s.name == "plan_bind"]
        assert bind_spans, "warm lower emitted no plan_bind span"
        bind = min(bind, sum(s.duration for s in bind_spans))

    bit_identical = bool(np.array_equal(fresh_result, warm_result))
    return {
        "fresh_lower_seconds": round(fresh, 4),
        "cold_capture_seconds": round(cold, 4),
        "warm_lower_seconds": round(warm, 4),
        "warm_bind_seconds": round(bind, 5),
        "host_speedup": round(fresh / bind, 2),
        "plan_cache": cache.counters(),
        "bit_identical": bit_identical,
    }


def run_benchmark() -> Dict:
    gemm = {str(n): time_plan_paths(n) for n in GEMM_SIZES}
    return {
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "metric": (
            "host wall-clock seconds; warm_bind_seconds is the plan_bind "
            "span (per-request host work on a cache hit)"
        ),
        "gemm": gemm,
        "criterion_host_speedup_2048": gemm["2048"]["host_speedup"],
    }


def write_results(results: Dict) -> None:
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")


@pytest.mark.slow
def test_plan_cache_bench(report):
    results = run_benchmark()
    write_results(results)
    report(json.dumps(results, indent=2))
    for n, row in results["gemm"].items():
        assert row["bit_identical"], f"{n}: warm replay is not bit-identical"
    # Acceptance floor (ISSUE 6): warm-path host wall-clock must be at
    # least 5x lower than fresh lowering on the flagship 2048 GEMM.
    assert results["criterion_host_speedup_2048"] >= 5.0


if __name__ == "__main__":
    out = run_benchmark()
    write_results(out)
    print(json.dumps(out, indent=2))
    print(f"\nwrote {RESULT_PATH}")
