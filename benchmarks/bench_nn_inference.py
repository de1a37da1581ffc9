"""NN inference benchmark: per-layer attribution + warm-plan speedup.

Two measurements over the :mod:`repro.nn` workloads (ISSUE §10):

* **Per-layer latency attribution** — ``lenet`` and ``attention`` run
  end-to-end on an 8-TPU pool with ``sync_per_layer=True``; each
  layer's simulated wall and device-busy seconds come from the
  ``nn:<model>/<layer>`` telemetry spans that ``Sequential.forward``
  records into ``layer_reports``.  Cold (first inference, plans
  captured) and warm (plans replayed) passes are both archived.

* **Warm-bind host speedup** — for each device layer of LeNet the conv
  lowering is timed three ways, exactly like ``bench_plan_cache.py``:
  ``fresh_lower_seconds`` (no cache), ``warm_lower_seconds`` (cache
  hit, end-to-end), and ``warm_bind_seconds`` (the ``plan_bind`` span —
  the host work a warm request actually performs).  The acceptance gate
  (ISSUE satellite 5) is ``fresh / bind >= 3`` on every layer after the
  first: once the input geometry repeats, replaying the captured conv
  plan must cut per-request host work at least 3x.

Warm results are asserted bit-identical to the plan-free lowering.
Results land in ``BENCH_nn.json`` at the repo root; see ``docs/nn.md``.

Run with::

    PYTHONPATH=src python benchmarks/bench_nn_inference.py
    PYTHONPATH=src python -m pytest benchmarks/bench_nn_inference.py -m slow
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Dict

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.edgetpu.isa import Opcode
from repro.host.platform import Platform
from repro.nn.models import MODELS, sample_input
from repro.plan.cache import PlanCache
from repro.runtime.api import OpenCtpu
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import Tensorizer
from repro.telemetry.tracer import SpanTracer

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_nn.json"

MODEL_TPUS = 8
FRESH_REPS = 5
WARM_REPS = 7

#: LeNet's device layers as standalone conv2D_nn requests (the dense
#: stack lowers as 1x1 convs, so these shapes cover the whole model).
LENET_LAYERS = (
    ("conv1", (2, 1, 28, 28), (6, 1, 5, 5), (2, 2, 2, 2)),
    ("conv2", (2, 6, 14, 14), (16, 6, 5, 5), (0, 0, 0, 0)),
    ("dense1", (2, 400, 1, 1), (120, 400, 1, 1), (0, 0, 0, 0)),
    ("dense2", (2, 120, 1, 1), (84, 120, 1, 1), (0, 0, 0, 0)),
)


def _conv_request(x: np.ndarray, w: np.ndarray, padding) -> OperationRequest:
    return OperationRequest(
        task_id=0,
        opcode=Opcode.CONV2D_NN,
        inputs=(x, w),
        quant=QuantMode.SCALE,
        attrs={"stride": (1, 1), "padding": tuple(padding), "relu": True},
    )


def time_layer(name: str, x_shape, w_shape, padding) -> Dict:
    """Fresh / cold-capture / warm-bind timings for one conv layer."""
    rng = np.random.default_rng(len(name))
    x = rng.normal(size=x_shape)
    w = rng.normal(size=w_shape)

    fresh_tz = Tensorizer()
    fresh = float("inf")
    for _ in range(FRESH_REPS):
        start = time.perf_counter()
        fresh_result = fresh_tz.lower(_conv_request(x.copy(), w, padding)).result
        fresh = min(fresh, time.perf_counter() - start)

    tracer = SpanTracer()
    cache = PlanCache()
    tz = Tensorizer(
        tracer=tracer,
        plan_cache=cache,
    )
    start = time.perf_counter()
    tz.lower(_conv_request(x.copy(), w, padding))
    cold = time.perf_counter() - start
    tracer.enable()

    warm = bind = float("inf")
    warm_result = None
    for _ in range(WARM_REPS):
        mark = len(tracer.spans)
        start = time.perf_counter()
        warm_result = tz.lower(_conv_request(x.copy(), w, padding)).result
        warm = min(warm, time.perf_counter() - start)
        bind_spans = [s for s in tracer.spans[mark:] if s.name == "plan_bind"]
        assert bind_spans, f"{name}: warm lower emitted no plan_bind span"
        bind = min(bind, sum(s.duration for s in bind_spans))

    return {
        "fresh_lower_seconds": round(fresh, 5),
        "cold_capture_seconds": round(cold, 5),
        "warm_lower_seconds": round(warm, 5),
        "warm_bind_seconds": round(bind, 6),
        "host_speedup": round(fresh / bind, 2),
        "bit_identical": bool(np.array_equal(fresh_result, warm_result)),
    }


def attribute_model(name: str, seed: int = 0) -> Dict:
    """Cold + warm per-layer attribution for one repro.nn model."""
    model = MODELS[name](seed=seed)
    x = sample_input(model, batch=2, seed=seed)
    cache = PlanCache()
    ctx = OpenCtpu(Platform(SystemConfig().with_tpus(MODEL_TPUS)),
                   plan_cache=cache)
    cold_out = model.forward(ctx, x, sync_per_layer=True)
    cold = [dict(r) for r in model.layer_reports]
    warm_out = model.forward(ctx, x, sync_per_layer=True)
    warm = [dict(r) for r in model.layer_reports]
    return {
        "tpus": MODEL_TPUS,
        "input_shape": list(x.shape),
        "cold_layers": cold,
        "warm_layers": warm,
        "cold_wall_seconds": round(sum(r["wall_seconds"] for r in cold), 6),
        "warm_wall_seconds": round(sum(r["wall_seconds"] for r in warm), 6),
        "warm_bit_identical": bool(np.array_equal(cold_out, warm_out)),
        "plan_cache": cache.counters(),
    }


def run_benchmark() -> Dict:
    layers = {
        name: time_layer(name, x_shape, w_shape, padding)
        for name, x_shape, w_shape, padding in LENET_LAYERS
    }
    return {
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "metric": (
            "host wall-clock seconds per layer lowering; attribution "
            "wall/device seconds are simulated Edge TPU time from the "
            "nn:<model>/<layer> telemetry spans"
        ),
        "layers": layers,
        "attribution": {name: attribute_model(name) for name in sorted(MODELS)},
        "criterion_min_warm_speedup_layer2": min(
            row["host_speedup"]
            for name, row in layers.items()
            if name != LENET_LAYERS[0][0]
        ),
    }


def write_results(results: Dict) -> None:
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")


@pytest.mark.slow
def test_nn_inference_bench(report):
    results = run_benchmark()
    write_results(results)
    report(json.dumps(results, indent=2))
    for name, row in results["layers"].items():
        assert row["bit_identical"], f"{name}: warm replay is not bit-identical"
    for name, attribution in results["attribution"].items():
        assert attribution["warm_bit_identical"], name
        assert attribution["plan_cache"]["hits"] > 0, name
    # Acceptance gate (ISSUE satellite 5): from the second device layer
    # on, binding the cached conv plan must be >= 3x cheaper on the host
    # than lowering fresh.
    assert results["criterion_min_warm_speedup_layer2"] >= 3.0


if __name__ == "__main__":
    out = run_benchmark()
    write_results(out)
    print(json.dumps(out, indent=2))
    print(f"\nwrote {RESULT_PATH}")
