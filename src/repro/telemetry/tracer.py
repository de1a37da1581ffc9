"""Span-based host tracing for the lowering/serving stack.

One :class:`SpanTracer` records *spans* — named, categorized intervals
on a logical *track* (a device, the tensorizer, the router...).  Every
span carries two time bases: host wall time (the tracer's clock) and
*modeled device seconds* accumulated via :meth:`Span.add_device_seconds`,
so a trace can be reconciled against the timing model's own ledgers
(``ServingMetrics.busy_by_device``, ``Timeline.busy_by_unit``).

The tracer is **disabled by default** and the disabled path allocates
nothing: :meth:`SpanTracer.begin` returns the shared :data:`NULL_SPAN`
singleton, whose every method is a no-op.  Instrumented hot paths pay
one attribute read and one ``if`` per call — see
``tests/telemetry/test_overhead.py`` for the enforcement.

Two usage styles::

    with tracer.span("lower:conv2D", cat="lower") as sp:
        ...
        sp.add_device_seconds(op.total_exec_seconds)

    sp = tracer.begin("exec", cat="device", track="tpu0")
    ...
    tracer.end(sp)

Zero dependencies beyond the standard library; asyncio-friendly (spans
from concurrent tasks land on distinct tracks and may overlap freely).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterator, List, Optional


class Span:
    """One traced interval (or instant) on a track."""

    __slots__ = ("name", "cat", "track", "start", "end", "device_seconds", "args", "phase")

    def __init__(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        args: Optional[dict] = None,
        phase: str = "X",
    ) -> None:
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end: Optional[float] = None
        self.device_seconds = 0.0
        self.args: dict = args or {}
        self.phase = phase  # "X" (complete) or "i" (instant)

    @property
    def duration(self) -> float:
        """Host wall seconds (0.0 while open and for instants)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **args: object) -> "Span":
        """Attach arguments; returns self for chaining."""
        self.args.update(args)
        return self

    def add_device_seconds(self, seconds: float) -> "Span":
        """Accumulate modeled device time onto this span."""
        self.device_seconds += seconds
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, cat={self.cat!r}, track={self.track!r}, "
            f"dur={self.duration:.6g}s, device={self.device_seconds:.6g}s)"
        )


class _NullSpan:
    """The shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    name = ""
    cat = ""
    track = ""
    phase = "X"
    start = 0.0
    end = 0.0
    duration = 0.0
    device_seconds = 0.0
    args: dict = {}

    def set(self, **args: object) -> "_NullSpan":
        return self

    def add_device_seconds(self, seconds: float) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


#: Singleton returned by every begin/span call on a disabled tracer.
NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context-manager shim binding an open span to its tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "SpanTracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info: object) -> bool:
        self._tracer.end(self._span)
        return False


class SpanTracer:
    """Collects spans against an injectable host clock.

    Disabled by default; :meth:`enable` turns recording on.  The clock
    is injectable for the same reason the serving clocks are
    (deterministic tests) and defaults to ``time.perf_counter``.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        enabled: bool = False,
    ) -> None:
        self.enabled = enabled
        self._clock = clock
        self._spans: List[Span] = []
        #: Lifetime count of real (non-null) spans begun.
        self.spans_created = 0
        #: Lifetime count of instant events recorded.
        self.instants_created = 0

    # -- control --------------------------------------------------------

    def enable(self) -> "SpanTracer":
        """Turn recording on; returns self."""
        self.enabled = True
        return self

    def clear(self) -> None:
        """Drop every finished span and reset the creation counters."""
        self._spans.clear()
        self.spans_created = 0
        self.instants_created = 0

    # -- recording ------------------------------------------------------

    def begin(self, name: str, cat: str = "", track: str = "host", **args: object):
        """Open a span (explicit API); pair with :meth:`end`.

        Returns :data:`NULL_SPAN` when disabled — callers never branch.
        """
        if not self.enabled:
            return NULL_SPAN
        self.spans_created += 1
        return Span(name, cat, track, self._clock(), args or None)

    def end(self, span) -> None:
        """Close *span* and record it (no-op for the null span)."""
        if span is NULL_SPAN or span.end is not None:
            return
        span.end = self._clock()
        self._spans.append(span)

    def span(self, name: str, cat: str = "", track: str = "host", **args: object):
        """Context-manager form of :meth:`begin`/:meth:`end`."""
        if not self.enabled:
            return NULL_SPAN
        self.spans_created += 1
        return _SpanContext(self, Span(name, cat, track, self._clock(), args or None))

    def instant(self, name: str, cat: str = "", track: str = "host", **args: object) -> None:
        """Record a zero-duration event (lifecycle transitions)."""
        if not self.enabled:
            return
        self.instants_created += 1
        now = self._clock()
        span = Span(name, cat, track, now, args or None, phase="i")
        span.end = now
        self._spans.append(span)

    # -- inspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    @property
    def spans(self) -> List[Span]:
        """Finished spans, in completion order."""
        return list(self._spans)

    def device_seconds_by_track(self, cat: Optional[str] = None) -> Dict[str, float]:
        """Total modeled device seconds per track (optionally one cat).

        This is the reconciliation hook: summed over the ``device`` cat
        it must equal ``ServingMetrics.busy_by_device`` for the same run.
        """
        totals: Dict[str, float] = {}
        for span in self._spans:
            if cat is not None and span.cat != cat:
                continue
            if span.device_seconds:
                totals[span.track] = totals.get(span.track, 0.0) + span.device_seconds
        return totals
