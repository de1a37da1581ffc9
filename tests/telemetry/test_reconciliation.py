"""Acceptance: trace device-time totals reconcile with ServingMetrics.

A traced loadgen run must produce a valid Chrome-trace JSON whose
per-device modeled execution time (summed over cat=="device" spans)
matches ``ServingMetrics.busy_by_device`` to within float tolerance —
the span layer and the metrics layer observe the same successes.
"""

import pytest

from repro import telemetry
from repro.loadgen import LoadgenSpec, run_loadgen
from repro.telemetry import SpanTracer, to_chrome_trace, validate_chrome_trace


@pytest.fixture()
def traced_run():
    tracer = SpanTracer(enabled=True)
    previous = telemetry.set_tracer(tracer)
    try:
        result = run_loadgen(
            LoadgenSpec(tpus=2, tenants=2, requests_per_tenant=3, size=64)
        )
    finally:
        telemetry.set_tracer(previous)
    return tracer, result


class TestReconciliation:
    def test_device_spans_match_busy_by_device(self, traced_run):
        tracer, result = traced_run
        modeled = tracer.device_seconds_by_track(cat="device")
        busy = {
            name: entry["busy_seconds"]
            for name, entry in result.snapshot["devices"].items()
        }
        assert modeled.keys() == {k for k, v in busy.items() if v > 0}
        for name, seconds in modeled.items():
            assert seconds == pytest.approx(busy[name], rel=1e-9)

    def test_trace_json_reconciles_too(self, traced_run):
        tracer, result = traced_run
        payload = to_chrome_trace(tracer)
        assert validate_chrome_trace(payload) == []
        per_tid = {}
        for event in payload["traceEvents"]:
            if event["ph"] == "X" and event.get("cat") == "device":
                per_tid[event["tid"]] = per_tid.get(event["tid"], 0.0) + event[
                    "args"
                ]["device_seconds"]
        for name, seconds in per_tid.items():
            assert seconds == pytest.approx(
                result.snapshot["devices"][name]["busy_seconds"], rel=1e-9
            )

    def test_trace_covers_the_whole_stack(self, traced_run):
        tracer, _ = traced_run
        cats = {span.cat for span in tracer}
        assert {"lower", "lower.phase", "device", "serve"} <= cats

    def test_all_requests_delivered(self, traced_run):
        _, result = traced_run
        assert result.snapshot["outcomes"]["lost"] == 0
        assert result.mismatches == 0
