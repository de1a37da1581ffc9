"""repro.telemetry — span tracing, unified counters, trace export.

A zero-dependency, disabled-by-default tracer threaded through the
whole stack (OPQ submit → Tensorizer lowering phases → scheduler group
formation → DevicePool execution), with every span carrying host wall
time *and* modeled device time; a :class:`CounterRegistry` unifying the
scattered counter families; and Chrome-trace/Perfetto + attribution
exporters.  See docs/telemetry.md.

Components resolve the tracer at construction from the module-level
default (:func:`get_tracer`), so ``repro trace`` — or a test calling
:func:`set_tracer` — observes everything built afterwards without any
plumbing.
"""

from repro.telemetry.counters import (
    CounterRegistry,
    device_counters,
    memory_counters,
    plan_counters,
    serving_counters,
    tensorizer_counters,
)
from repro.telemetry.export import (
    attribution,
    merge_chrome_traces,
    save_chrome_trace,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.telemetry.tracer import NULL_SPAN, Span, SpanTracer

_default_tracer = SpanTracer()


def get_tracer() -> SpanTracer:
    """The process-default tracer (disabled until someone enables it)."""
    return _default_tracer


def set_tracer(tracer: SpanTracer) -> SpanTracer:
    """Swap the process-default tracer; returns the previous one."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous


__all__ = [
    "NULL_SPAN",
    "CounterRegistry",
    "Span",
    "SpanTracer",
    "attribution",
    "device_counters",
    "get_tracer",
    "memory_counters",
    "plan_counters",
    "merge_chrome_traces",
    "save_chrome_trace",
    "serving_counters",
    "set_tracer",
    "tensorizer_counters",
    "to_chrome_trace",
    "validate_chrome_trace",
]
