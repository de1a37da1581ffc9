"""Device health scoring and SDC quarantine for the dispatch pool.

Distinct from the circuit breaker: a breaker reacts to *fail-stop*
faults (the device raised instead of answering) and closes again on
any success.  Silent corruption is stronger evidence of a bad part —
a device that lies once is suspected until it re-earns trust — so the
quarantine keeps a decaying **suspicion score** per device:

* every SDC detection adds ``weight`` (1.0 for the transmitting
  device, less for a vote witness implicated indirectly);
* reaching ``threshold`` quarantines the device for a hold period that
  doubles on each re-offense (exponential backoff, capped);
* after the hold the device is released **on probation**: it is
  schedulable again, but its score still sits at/above threshold, so
  one more SDC re-quarantines it immediately;
* each cleanly verified group decays the score multiplicatively;
  dropping below threshold ends probation.

All timing goes through the injected clock — the same one the pool and
breakers use — so tests and campaigns drive the lifecycle
deterministically with a fake clock.
"""

from __future__ import annotations

import time
from typing import Callable, List, Sequence


class QuarantineManager:
    """Suspicion scores and quarantine state for a pool's devices."""

    def __init__(
        self,
        num_devices: int,
        clock: Callable[[], float] = time.monotonic,
        *,
        threshold: float = 1.0,
        quarantine_seconds: float = 0.05,
        backoff: float = 2.0,
        max_quarantine_seconds: float = 1.0,
        decay: float = 0.5,
    ) -> None:
        if num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if threshold <= 0:
            raise ValueError("threshold must be > 0")
        if not 0.0 <= decay < 1.0:
            raise ValueError("decay must be in [0, 1)")
        self._clock = clock
        self.threshold = threshold
        self.quarantine_seconds = quarantine_seconds
        self.backoff = backoff
        self.max_quarantine_seconds = max_quarantine_seconds
        self.decay = decay
        #: Current suspicion score per device.
        self.scores: List[float] = [0.0] * num_devices
        self._until: List[float] = [-1.0] * num_devices
        #: Lifetime counters.
        self.sdc_events: List[int] = [0] * num_devices
        self.quarantine_count: List[int] = [0] * num_devices
        self.probations_passed: List[int] = [0] * num_devices

    # -- recording ------------------------------------------------------

    def record_sdc(self, index: int, weight: float = 1.0) -> bool:
        """Account one SDC detection; returns True on a new quarantine."""
        self.sdc_events[index] += 1
        self.scores[index] += weight
        if self.scores[index] >= self.threshold and not self.is_quarantined(index):
            hold = min(
                self.quarantine_seconds * (self.backoff ** self.quarantine_count[index]),
                self.max_quarantine_seconds,
            )
            self._until[index] = self._clock() + hold
            self.quarantine_count[index] += 1
            return True
        return False

    def record_clean(self, index: int) -> None:
        """A cleanly verified group decays the device's suspicion."""
        if self.scores[index] == 0.0:
            return
        on_probation = self.on_probation(index)
        self.scores[index] *= self.decay
        if self.scores[index] < 1e-12:
            self.scores[index] = 0.0
        if on_probation and not self.on_probation(index):
            self.probations_passed[index] += 1

    # -- state ----------------------------------------------------------

    def is_quarantined(self, index: int) -> bool:
        """True while the device must receive no work."""
        return self._clock() < self._until[index]

    def on_probation(self, index: int) -> bool:
        """Released from quarantine but not yet trusted (score high)."""
        return not self.is_quarantined(index) and self.scores[index] >= self.threshold

    def release_at(self, index: int) -> float:
        """Clock instant the device's current quarantine ends."""
        return self._until[index]

    def snapshot(self, names: Sequence[str]) -> dict:
        """JSON-friendly per-device quarantine state."""
        return {
            names[i]: {
                "score": self.scores[i],
                "quarantined": self.is_quarantined(i),
                "probation": self.on_probation(i),
                "sdc_events": self.sdc_events[i],
                "quarantines": self.quarantine_count[i],
                "probations_passed": self.probations_passed[i],
            }
            for i in range(len(self.scores))
        }
