"""Serving-layer load test — multi-tenant, one TPU dying mid-run.

The paper motivates GPTPU as shared infrastructure: "allow concurrent
GPTPU task execution" (§1) over the 8-TPU prototype (§6.1).  This
benchmark drives :mod:`repro.serve` the way a service would be driven:
six tenants issue GEMMs concurrently against a shared weight matrix
while one of the eight simulated Edge TPUs fails permanently mid-run.

Asserted invariants (the serving layer's contract):

* **zero lost / zero duplicated** — every admitted request's future
  settles exactly once; ``outcomes.lost == 0``;
* **fault tolerance** — all surviving requests complete even though one
  device dies (retry/requeue onto healthy TPUs, circuit breaker);
* **bit-identity** — every delivered result equals the solo lowering of
  the same request, coalesced or not, retried or not.

Results land in ``BENCH_serving.json`` at the repo root so CI and
EXPERIMENTS.md can cite p50/p99 latency and retry counts.  The run
executes under an enabled span tracer and also emits
``BENCH_serving_trace.json`` — a schema-validated Chrome trace of the
same run (load it at https://ui.perfetto.dev), the serving benchmark's
trace artifact for CI.
"""

import json
import pathlib

import pytest

from repro import telemetry
from repro.bench import format_table
from repro.loadgen import LoadgenSpec, run_loadgen

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_serving.json"
TRACE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_serving_trace.json"

SPEC = LoadgenSpec(
    tpus=8,
    tenants=6,
    requests_per_tenant=8,
    size=128,
    seed=7,
    fail_after_instructions=40,  # dies mid-run, after serving some groups
    fail_device=3,
    time_scale=0.0,  # free-run: modeled service time, real concurrency
)

N_REQUESTS = SPEC.tenants * SPEC.requests_per_tenant


def test_serving_under_device_failure(benchmark, report):
    tracer = telemetry.SpanTracer(enabled=True)

    def traced_run():
        previous = telemetry.set_tracer(tracer)
        try:
            return run_loadgen(SPEC)
        finally:
            telemetry.set_tracer(previous)

    result = benchmark.pedantic(traced_run, rounds=1, iterations=1)
    snapshot = result.snapshot
    outcomes = snapshot["outcomes"]
    latency = snapshot["latency"]

    payload = dict(snapshot)
    payload["loadgen"] = {
        "wall_seconds": result.wall_seconds,
        "mismatches": result.mismatches,
        "delivered_by_tenant": result.delivered_by_tenant,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    telemetry.save_chrome_trace(tracer, str(TRACE_PATH))
    assert telemetry.validate_chrome_trace(str(TRACE_PATH)) == []

    failed_dev = f"tpu{SPEC.fail_device}"
    report(
        format_table(
            ["metric", "value"],
            [
                ("tenants x requests", f"{SPEC.tenants} x {SPEC.requests_per_tenant}"),
                ("TPUs (1 failing mid-run)", str(SPEC.tpus)),
                ("submitted", str(outcomes["submitted"])),
                ("completed", str(outcomes["completed"])),
                ("lost", str(outcomes["lost"])),
                ("result mismatches vs solo", str(result.mismatches)),
                ("p50 latency", f"{latency['p50_seconds'] * 1e3:.2f} ms"),
                ("p99 latency", f"{latency['p99_seconds'] * 1e3:.2f} ms"),
                ("device failures observed", str(snapshot["device_failures"])),
                ("group retries", str(snapshot["retries"])),
                ("coalesced requests", str(snapshot["coalescing"]["requests_coalesced"])),
                ("plan-cache hit rate", f"{snapshot['plan_cache']['hit_rate']:.1%}"),
                ("plan binds (warm requests)", str(snapshot["plan_cache"]["binds"])),
                (f"groups retired on {failed_dev}",
                 str(snapshot["devices"].get(failed_dev, {}).get("groups", 0))),
                ("healthy TPUs at end",
                 f"{snapshot['platform']['healthy']}/{snapshot['platform']['tpus']}"),
            ],
            title="Serving under a mid-run device failure (BENCH_serving.json):",
        )
    )

    # Zero lost / zero duplicated: every future settled exactly once.
    assert outcomes["lost"] == 0
    # Fault tolerance: the injected permanent failure surfaced ...
    assert snapshot["device_failures"] >= 1
    assert snapshot["retries"] >= 1
    assert snapshot["platform"]["healthy"] == SPEC.tpus - 1
    # ... yet every request still completed on the healthy devices.
    assert outcomes["completed"] == N_REQUESTS
    assert outcomes["failed"] == 0 and outcomes["timeouts"] == 0
    # Bit-identity: delivered results match solo lowering exactly.
    assert result.mismatches == 0
    # AOT plan cache: a steady-shape workload (every request the same
    # GEMM signature) must lower once and replay from then on.
    plan = snapshot["plan_cache"]
    assert plan["hit_rate"] >= 0.9
    assert plan["binds"] > 0 and plan["entries"] >= 1
    # The latency summary is well-formed (p50 <= p99 <= max).
    assert 0 < latency["p50_seconds"] <= latency["p99_seconds"] <= latency["max_seconds"]
    # Work actually spread across the surviving devices.
    active = [d for d, v in snapshot["devices"].items() if v["groups"] > 0]
    assert len(active) >= SPEC.tpus - 1
    # The trace's modeled device time reconciles with the metrics: the
    # span layer and busy_by_device observed the same successes.
    for name, seconds in tracer.device_seconds_by_track(cat="device").items():
        assert seconds == pytest.approx(
            snapshot["devices"][name]["busy_seconds"], rel=1e-9
        )
