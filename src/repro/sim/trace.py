"""Structured tracing for simulations.

The executor emits one :class:`TraceRecord` per modeled activity (DMA
transfer, instruction execution, model build, CPU aggregation).  Traces
drive the benchmark reports and make scheduling decisions inspectable in
tests (e.g. asserting that the locality rule kept same-input instructions
on one device).
"""

from __future__ import annotations

import bisect
from types import MappingProxyType
from typing import Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

_NO_META: Mapping[str, object] = MappingProxyType({})


class TraceRecord(NamedTuple):
    """One timed activity in the simulation."""

    #: Activity start, simulated seconds.
    start: float
    #: Activity end, simulated seconds.
    end: float
    #: Category, e.g. ``"transfer"``, ``"instruction"``, ``"model_build"``,
    #: ``"cpu_aggregate"``.
    kind: str
    #: Which hardware unit performed it, e.g. ``"tpu0"``, ``"cpu"``.
    unit: str
    #: Free-form label (opcode, buffer name, ...).
    label: str = ""
    #: Extra key/values (bytes moved, tile shape, task id, ...).
    meta: Mapping[str, object] = _NO_META

    @property
    def duration(self) -> float:
        """Length of the activity in simulated seconds."""
        return self.end - self.start


#: Builds a record from its field tuple, skipping the generated
#: ``__new__``'s argument handling (one record per modeled activity).
_make_record = tuple.__new__


class Tracer:
    """Collects :class:`TraceRecord` objects during one simulation run."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._records: List[TraceRecord] = []
        #: Running maximum of record starts, extended on demand: no
        #: record before index i starts at or after ``_start_hwm[i]``.
        self._start_hwm: List[float] = []

    def record(
        self,
        start: float,
        end: float,
        kind: str,
        unit: str,
        label: str = "",
        **meta: object,
    ) -> None:
        """Append one activity record (no-op when tracing is disabled)."""
        if not self.enabled:
            return
        if end < start:
            raise ValueError(f"trace record ends before it starts ({start} > {end})")
        # ``meta`` is already a fresh dict, owned by this record.
        self._records.append(
            _make_record(TraceRecord, (start, end, kind, unit, label, meta))
        )

    def appender(self) -> Optional[Callable[[TraceRecord], None]]:
        """Appends one ready-made record, or None when tracing is off.

        For a producer that builds :class:`TraceRecord` tuples itself
        (the executor's replay makes tens of thousands per sync).  It
        skips :meth:`record`'s ``end >= start`` check, so the producer
        must guarantee it.
        """
        return self._records.append if self.enabled else None

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def by_unit(self, unit: str) -> Tuple[TraceRecord, ...]:
        """All records attributed to one hardware unit."""
        return tuple(r for r in self._records if r.unit == unit)

    def busy_seconds(self, since: float = 0.0) -> Dict[str, float]:
        """Busy time per unit as the union of its activity intervals.

        Activities on one unit may overlap (a device's DMA engine runs
        while its matrix unit executes), so durations are merged, not
        summed — a unit is "active" whenever at least one of its
        activities is in flight, which is what the power model needs.

        *since* restricts the tally to records starting at or after that
        simulated time — used to account one ``sync()`` window at a time.
        """
        by_unit: Dict[str, List[Tuple[float, float]]] = {}
        for start, end, _, unit, _, _ in self._records[self._first_start_at(since) :]:
            if start >= since:
                intervals = by_unit.get(unit)
                if intervals is None:
                    by_unit[unit] = [(start, end)]
                else:
                    intervals.append((start, end))
        out: Dict[str, float] = {}
        for unit, intervals in by_unit.items():
            intervals.sort()
            total = 0.0
            cur_start, cur_end = intervals[0]
            for s, e in intervals:
                if s > cur_end:
                    total += cur_end - cur_start
                    cur_start, cur_end = s, e
                elif e > cur_end:
                    cur_end = e
            total += cur_end - cur_start
            out[unit] = total
        return out

    def _first_start_at(self, since: float) -> int:
        """Index of the first record starting at or after *since*.

        Every earlier record starts before it, so a tally from *since*
        scans one sync's records (plus any zero-length record an earlier
        sync stamped exactly at *since*), not the whole history.
        """
        hwm = self._start_hwm
        top = hwm[-1] if hwm else float("-inf")
        for rec in self._records[len(hwm) :]:
            if rec.start > top:
                top = rec.start
            hwm.append(top)
        return bisect.bisect_left(hwm, since)

    def span(self) -> Optional[Tuple[float, float]]:
        """(earliest start, latest end) across all records, or None."""
        if not self._records:
            return None
        return (
            min(r.start for r in self._records),
            max(r.end for r in self._records),
        )

    def clear(self) -> None:
        """Drop all collected records."""
        self._records.clear()
        self._start_hwm.clear()

    def to_chrome_trace(self) -> List[Dict[str, object]]:
        """Export records as Chrome trace-event objects.

        Load the JSON dump in ``chrome://tracing`` / Perfetto to see the
        simulated timeline: one lane per hardware unit, one complete
        ("X") event per activity, microsecond timestamps.
        """
        events: List[Dict[str, object]] = []
        for rec in self._records:
            events.append(
                {
                    "name": rec.label or rec.kind,
                    "cat": rec.kind,
                    "ph": "X",
                    "ts": rec.start * 1e6,
                    "dur": rec.duration * 1e6,
                    "pid": 0,
                    "tid": rec.unit,
                    "args": dict(rec.meta),
                }
            )
        return events

    def save_chrome_trace(self, path: str) -> None:
        """Write the Chrome trace JSON to *path*."""
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": self.to_chrome_trace()}, fh)
