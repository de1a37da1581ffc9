"""One snapshot over every counter family in the stack.

The repo grew three disjoint counter surfaces — ``TensorizerStats``
(lowering), ``ServingMetrics`` (serving outcomes), and the on-chip
memory model's hit/miss/eviction counts — each with its own shape and
access path.  :class:`CounterRegistry` unifies them behind *named
sources*: a source is any zero-argument callable returning a flat
mapping of counter name to number, sampled lazily at snapshot time so
registration costs nothing on hot paths.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterator, Mapping

CounterSource = Callable[[], Mapping[str, float]]


class CounterRegistry:
    """Named, lazily-sampled counter sources under one snapshot."""

    def __init__(self) -> None:
        self._sources: Dict[str, CounterSource] = {}

    def register(self, name: str, source: CounterSource) -> None:
        """Add one source; names are unique per registry."""
        if not name:
            raise ValueError("counter source needs a non-empty name")
        if name in self._sources:
            raise ValueError(f"counter source {name!r} already registered")
        if not callable(source):
            raise TypeError(f"counter source {name!r} must be callable")
        self._sources[name] = source

    def __contains__(self, name: str) -> bool:
        return name in self._sources

    def __len__(self) -> int:
        return len(self._sources)

    def __iter__(self) -> Iterator[str]:
        return iter(self._sources)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Sample every source: ``{source: {counter: value}}``."""
        return {name: dict(source()) for name, source in self._sources.items()}

    def flat(self) -> Dict[str, float]:
        """Dotted one-level form: ``{"source.counter": value}``."""
        out: Dict[str, float] = {}
        for name, counters in self.snapshot().items():
            for key, value in counters.items():
                out[f"{name}.{key}"] = value
        return out


# -- source adapters ----------------------------------------------------


def tensorizer_counters(stats) -> CounterSource:
    """Source over a :class:`~repro.runtime.tensorizer.TensorizerStats`."""
    return lambda: dataclasses.asdict(stats)


def memory_counters(memory) -> CounterSource:
    """Source over an :class:`~repro.edgetpu.memory.OnChipMemory`."""

    def sample() -> Dict[str, float]:
        return {
            "hits": memory.hits,
            "misses": memory.misses,
            "evictions": memory.evictions,
            "used_bytes": memory.used_bytes,
            "regions": len(memory),
        }

    return sample


def plan_counters(cache) -> CounterSource:
    """Source over a :class:`~repro.plan.cache.PlanCache` (hits, misses,
    evictions, binds, live entries, hit rate)."""
    return cache.counters


def serving_counters(metrics) -> CounterSource:
    """Source over a :class:`~repro.serve.metrics.ServingMetrics`."""
    return metrics.counters


def device_counters(device) -> CounterSource:
    """Source over an :class:`~repro.edgetpu.device.EdgeTPUDevice`.

    Lifetime execution counters, including ``saturated_values`` — the
    total output values clipped to the int8 rails across every packet
    the device executed (surfaced per §6.2.2's accuracy/saturation
    trade-off).
    """

    def sample() -> Dict[str, float]:
        return {
            "instructions_executed": device.instructions_executed,
            "busy_seconds": device.busy_seconds,
            "saturated_values": device.saturated_values,
        }

    return sample
