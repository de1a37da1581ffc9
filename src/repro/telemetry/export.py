"""Exporters for :class:`~repro.telemetry.tracer.SpanTracer` traces.

Two consumers:

* **Chrome trace / Perfetto** — :func:`to_chrome_trace` emits the JSON
  object format (``{"traceEvents": [...]}``) with one ``pid`` for the
  host process and one ``tid`` lane per span track.  Timestamps are
  microseconds relative to the first span, ``"X"`` complete events for
  spans and ``"i"`` instants for lifecycle events; every event's
  ``args`` carries its modeled ``device_seconds``.  Load the file at
  https://ui.perfetto.dev or ``chrome://tracing``.
* **Attribution table** — :func:`attribution` aggregates host and
  modeled device seconds per ``(cat, name)``; ``repro profile`` and
  ``repro trace`` print it via
  :func:`repro.bench.reporting.format_attribution`.

:func:`validate_chrome_trace` is the schema gate CI runs on emitted
artifacts — shape checks only, no external JSON-schema dependency.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple, Union

from repro.telemetry.tracer import SpanTracer

#: Event phases we emit and accept ("M" = metadata).
_VALID_PHASES = {"X", "B", "E", "i", "I", "M", "C"}


def to_chrome_trace(
    tracer: SpanTracer,
    counters: Optional[dict] = None,
    *,
    pid: int = 0,
    process_name: str = "repro-host",
    time_origin: Optional[float] = None,
) -> dict:
    """Render a tracer's spans as a Chrome-trace JSON object.

    ``pid`` / ``process_name`` tag every event with the emitting process
    (the multi-process server exports one trace per worker, pid-tagged,
    and merges them with :func:`merge_chrome_traces` so Perfetto shows
    one process lane per worker).  ``time_origin`` pins the shared zero
    instant for such merges; by default each trace is rebased to its own
    first span.
    """
    spans = tracer.spans
    t0 = (
        time_origin
        if time_origin is not None
        else min((s.start for s in spans), default=0.0)
    )
    events: List[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "tid": "host",
            "ts": 0,
            "args": {"name": process_name},
        }
    ]
    for span in spans:
        event = {
            "name": span.name,
            "cat": span.cat or "span",
            "ph": span.phase,
            "ts": max((span.start - t0) * 1e6, 0.0),
            "pid": pid,
            "tid": span.track,
            "args": dict(span.args, device_seconds=span.device_seconds),
        }
        if span.phase == "X":
            event["dur"] = span.duration * 1e6
        else:
            event["s"] = "t"  # thread-scoped instant
        events.append(event)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    if counters is not None:
        payload["otherData"] = {"counters": counters}
    return payload


def merge_chrome_traces(traces: List[dict]) -> dict:
    """Concatenate pid-tagged Chrome traces into one loadable payload.

    Each input is a :func:`to_chrome_trace` object (typically one per
    process, distinct ``pid``).  Events concatenate in order; the first
    trace's ``otherData`` wins, with each later trace's counters kept
    under its metadata process name.
    """
    events: List[dict] = []
    other: dict = {}
    for trace in traces:
        events.extend(trace.get("traceEvents", []))
        extra = trace.get("otherData")
        if extra and not other:
            other = dict(extra)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    if other:
        payload["otherData"] = other
    return payload


def save_chrome_trace(
    tracer: SpanTracer, path: str, counters: Optional[dict] = None
) -> str:
    """Write :func:`to_chrome_trace` JSON to *path*; returns *path*."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(tracer, counters), fh, indent=1)
    return path


def validate_chrome_trace(payload: Union[dict, list, str]) -> List[str]:
    """Schema-check a Chrome-trace payload (dict, list, or file path).

    Returns a list of human-readable problems — empty means valid.
    Accepts both the JSON-object format and a bare event array (the two
    shapes the Trace Event format defines).
    """
    if isinstance(payload, str):
        try:
            with open(payload, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return [f"unreadable trace file: {exc}"]
    problems: List[str] = []
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            return ["object-format trace must carry a 'traceEvents' list"]
    elif isinstance(payload, list):
        events = payload
    else:
        return [f"trace must be a JSON object or array, got {type(payload).__name__}"]
    for i, event in enumerate(events):
        where = f"event {i}"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing or empty 'name'")
        ph = event.get("ph")
        if ph not in _VALID_PHASES:
            problems.append(f"{where} ({name!r}): bad phase {ph!r}")
            continue
        if "pid" not in event or "tid" not in event:
            problems.append(f"{where} ({name!r}): missing pid/tid")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where} ({name!r}): bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where} ({name!r}): 'X' event needs dur >= 0, got {dur!r}")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            problems.append(f"{where} ({name!r}): 'args' must be an object")
    return problems


def attribution(tracer: SpanTracer) -> List[dict]:
    """Per-phase attribution rows, heaviest host time first.

    One row per ``(cat, name)``: span count, total host wall seconds,
    total modeled device seconds.  Instants count as zero-duration rows
    so lifecycle events (retries, breaker opens) still show up.
    """
    totals: Dict[Tuple[str, str], List[float]] = {}
    for span in tracer:
        key = (span.cat or "span", span.name)
        row = totals.setdefault(key, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.duration
        row[2] += span.device_seconds
    rows = [
        {
            "cat": cat,
            "name": name,
            "count": int(count),
            "host_seconds": host,
            "device_seconds": device,
        }
        for (cat, name), (count, host, device) in totals.items()
    ]
    rows.sort(key=lambda r: (-r["host_seconds"], r["cat"], r["name"]))
    return rows
