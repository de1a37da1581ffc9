"""Chrome-trace export, schema validation, attribution table."""

import json

import pytest

from repro.bench.reporting import format_attribution
from repro.telemetry import (
    SpanTracer,
    attribution,
    save_chrome_trace,
    to_chrome_trace,
    validate_chrome_trace,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def _tracer_with_spans():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock, enabled=True)
    sp = tracer.begin("lower:conv2D", cat="lower", track="tensorizer", task_id=1)
    clock.now += 0.002
    sp.add_device_seconds(0.5)
    tracer.end(sp)
    sp = tracer.begin("exec_group", cat="device", track="tpu0")
    clock.now += 0.001
    sp.add_device_seconds(0.25)
    tracer.end(sp)
    tracer.instant("retry", cat="serve.lifecycle", track="tpu0", serve_id=3)
    return tracer


class TestChromeTrace:
    def test_events_are_well_formed(self):
        payload = to_chrome_trace(_tracer_with_spans())
        events = payload["traceEvents"]
        # Metadata + 2 spans + 1 instant.
        assert len(events) == 4
        phases = [e["ph"] for e in events]
        assert phases.count("X") == 2
        assert phases.count("i") == 1
        assert phases.count("M") == 1

    def test_timestamps_normalized_to_first_span_microseconds(self):
        payload = to_chrome_trace(_tracer_with_spans())
        xs = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert min(e["ts"] for e in xs) == 0
        first = next(e for e in xs if e["name"] == "lower:conv2D")
        assert first["dur"] == pytest.approx(2000.0)  # 2 ms in us
        second = next(e for e in xs if e["name"] == "exec_group")
        assert second["ts"] == pytest.approx(2000.0)

    def test_args_carry_device_seconds(self):
        payload = to_chrome_trace(_tracer_with_spans())
        by_name = {e["name"]: e for e in payload["traceEvents"] if e["ph"] != "M"}
        assert by_name["lower:conv2D"]["args"]["device_seconds"] == pytest.approx(0.5)
        assert by_name["exec_group"]["args"]["device_seconds"] == pytest.approx(0.25)
        assert by_name["retry"]["args"]["serve_id"] == 3

    def test_save_and_validate_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        assert save_chrome_trace(_tracer_with_spans(), path) == path
        assert validate_chrome_trace(path) == []
        payload = json.loads(open(path).read())
        assert validate_chrome_trace(payload) == []

    def test_empty_tracer_still_valid(self, tmp_path):
        tracer = SpanTracer(enabled=True)
        path = str(tmp_path / "empty.json")
        save_chrome_trace(tracer, path)
        assert validate_chrome_trace(path) == []

    def test_counters_ride_along(self):
        payload = to_chrome_trace(_tracer_with_spans(), counters={"a": {"b": 1}})
        assert payload["otherData"]["counters"] == {"a": {"b": 1}}


class TestValidation:
    def test_rejects_non_trace(self):
        assert validate_chrome_trace(42) != []
        assert validate_chrome_trace({"nope": []}) != []

    def test_rejects_bad_events(self):
        bad = {
            "traceEvents": [
                {"ph": "X", "ts": 0, "dur": 1, "pid": 0, "tid": "t"},  # no name
                {"name": "a", "ph": "Z", "ts": 0, "pid": 0, "tid": "t"},  # bad phase
                {"name": "b", "ph": "X", "ts": -1, "pid": 0, "tid": "t", "dur": 1},
                {"name": "c", "ph": "X", "ts": 0, "pid": 0, "tid": "t"},  # no dur
                {"name": "d", "ph": "i", "ts": 0},  # no pid/tid
                {"name": "e", "ph": "i", "ts": 0, "pid": 0, "tid": "t", "args": []},
            ]
        }
        problems = validate_chrome_trace(bad)
        assert len(problems) == 6

    def test_accepts_bare_array_format(self):
        events = [{"name": "a", "ph": "i", "ts": 0, "pid": 0, "tid": "t", "s": "t"}]
        assert validate_chrome_trace(events) == []

    def test_unreadable_file(self, tmp_path):
        assert validate_chrome_trace(str(tmp_path / "missing.json")) != []


class TestAttribution:
    def test_aggregates_by_cat_and_name(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock, enabled=True)
        for _ in range(3):
            sp = tracer.begin("quantize", cat="lower.phase", track="tensorizer")
            clock.now += 0.010
            tracer.end(sp)
        sp = tracer.begin("exec_group", cat="device", track="tpu0")
        clock.now += 0.001
        sp.add_device_seconds(9.0)
        tracer.end(sp)
        rows = attribution(tracer)
        assert rows[0]["name"] == "quantize"  # heaviest host time first
        assert rows[0]["count"] == 3
        assert rows[0]["host_seconds"] == pytest.approx(0.030)
        exec_row = next(r for r in rows if r["name"] == "exec_group")
        assert exec_row["device_seconds"] == pytest.approx(9.0)

    def test_format_contains_rows(self):
        text = format_attribution(_tracer_with_spans())
        assert "lower:conv2D" in text
        assert "device" in text
        assert "host ms" in text
