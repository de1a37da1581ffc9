"""Quarantine lifecycle: suspicion, hold, backoff, probation, decay."""

import pytest

from repro.integrity.quarantine import QuarantineManager


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


def manager(clock, **kwargs):
    kwargs.setdefault("quarantine_seconds", 1.0)
    kwargs.setdefault("max_quarantine_seconds", 60.0)
    return QuarantineManager(3, clock=clock, **kwargs)


class TestLifecycle:
    def test_validation(self, clock):
        with pytest.raises(ValueError):
            QuarantineManager(0, clock=clock)
        with pytest.raises(ValueError):
            QuarantineManager(2, clock=clock, threshold=0)
        with pytest.raises(ValueError):
            QuarantineManager(2, clock=clock, decay=1.0)

    def test_sdc_at_threshold_quarantines(self, clock):
        q = manager(clock)
        assert q.record_sdc(0)  # default weight 1.0 == threshold
        assert q.is_quarantined(0)
        assert not q.is_quarantined(1)  # others untouched

    def test_sub_threshold_weight_accumulates(self, clock):
        q = manager(clock)
        assert not q.record_sdc(1, weight=0.5)
        assert not q.is_quarantined(1)
        assert q.record_sdc(1, weight=0.5)  # second incident tips it
        assert q.is_quarantined(1)

    def test_release_after_hold(self, clock):
        q = manager(clock)
        q.record_sdc(0)
        assert q.release_at(0) == pytest.approx(1.0)
        clock.advance(1.01)
        assert not q.is_quarantined(0)

    def test_probation_until_score_decays(self, clock):
        q = manager(clock)
        q.record_sdc(0)
        clock.advance(1.01)
        assert q.on_probation(0)  # released, but score still >= threshold
        q.record_clean(0)  # 1.0 -> 0.5: trust re-earned
        assert not q.on_probation(0)
        assert q.probations_passed[0] == 1

    def test_reoffense_on_probation_requarantines_with_backoff(self, clock):
        q = manager(clock)
        q.record_sdc(0)
        clock.advance(1.01)
        assert q.on_probation(0)
        assert q.record_sdc(0)  # score already >= threshold: instant
        assert q.is_quarantined(0)
        # Exponential backoff: second hold is 2x the base.
        assert q.release_at(0) == pytest.approx(clock.now + 2.0)

    def test_backoff_is_capped(self, clock):
        q = manager(clock, max_quarantine_seconds=3.0)
        for _ in range(5):
            q.record_sdc(0)
            clock.advance(q.release_at(0) - clock.now + 0.01)
        q.record_sdc(0)
        assert q.release_at(0) - clock.now <= 3.0 + 1e-9

    def test_while_quarantined_no_new_quarantine(self, clock):
        q = manager(clock)
        assert q.record_sdc(0)
        assert not q.record_sdc(0)  # already held: no new transition
        assert q.quarantine_count[0] == 1
        assert q.sdc_events[0] == 2  # but the incident is still counted

    def test_clean_decay_reaches_zero(self, clock):
        q = manager(clock)
        q.record_sdc(2, weight=0.9)
        for _ in range(60):
            q.record_clean(2)
        assert q.scores[2] == 0.0

    def test_snapshot_shape(self, clock):
        q = manager(clock)
        q.record_sdc(0)
        snap = q.snapshot(["a", "b", "c"])
        assert set(snap) == {"a", "b", "c"}
        assert snap["a"]["quarantined"] and snap["a"]["sdc_events"] == 1
        assert snap["b"]["score"] == 0.0
