"""Additional DES kernel tests (failure propagation) and tracer edge cases."""

import pytest

from repro.conformance.des_kernel import AllOf, Engine
from repro.sim.trace import Tracer


class TestFailurePropagation:
    def test_event_fail_raises_in_waiter(self):
        eng = Engine()
        gate = eng.event("gate")

        def failer():
            yield eng.timeout(1.0)
            gate.fail(RuntimeError("device lost"))

        def waiter():
            try:
                yield gate
            except RuntimeError as exc:
                return f"caught: {exc}"

        eng.process(failer())
        assert eng.run_process(waiter()) == "caught: device lost"

    def test_fail_requires_an_exception(self):
        eng = Engine()
        with pytest.raises(TypeError):
            eng.event().fail("not an exception")  # type: ignore[arg-type]

    def test_value_of_failed_event_reraises(self):
        eng = Engine()
        evt = eng.event()
        evt.fail(ValueError("bad"))
        with pytest.raises(ValueError, match="bad"):
            _ = evt.value

    def test_all_of_fails_with_first_child_failure(self):
        eng = Engine()

        def ok():
            yield eng.timeout(2.0)
            return "fine"

        def bad():
            yield eng.timeout(1.0)
            raise OSError("boom")

        def waiter():
            try:
                yield AllOf(eng, [eng.process(ok()), eng.process(bad())])
            except OSError:
                return eng.now

        assert eng.run_process(waiter()) == 1.0


class TestTracerEdgeCases:
    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            Tracer().record(2.0, 1.0, "x", "u")

    def test_busy_seconds_merges_overlaps(self):
        tracer = Tracer()
        tracer.record(0.0, 2.0, "a", "u")
        tracer.record(1.0, 3.0, "b", "u")
        tracer.record(5.0, 6.0, "c", "u")
        assert tracer.busy_seconds()["u"] == pytest.approx(4.0)

    def test_busy_seconds_since_boundary(self):
        tracer = Tracer()
        tracer.record(0.0, 1.0, "a", "u")
        tracer.record(1.0, 2.0, "b", "u")
        assert tracer.busy_seconds(since=1.0)["u"] == pytest.approx(1.0)

    def test_busy_seconds_since_keeps_zero_length_records_at_since(self):
        # An earlier window may stamp a zero-length record exactly at the
        # next window's start; the tally from there must still see it.
        tracer = Tracer()
        tracer.record(0.0, 1.0, "a", "u")
        tracer.record(1.0, 1.0, "host", "cpu")
        tracer.record(0.5, 1.0, "b", "u")
        assert tracer.busy_seconds(since=1.0) == {"cpu": 0.0}
        tracer.record(1.0, 2.0, "c", "u")
        assert tracer.busy_seconds(since=1.0) == {"cpu": 0.0, "u": 1.0}

    def test_busy_seconds_since_matches_full_scan(self):
        import random

        rng = random.Random(5)
        tracer, records = Tracer(), []
        for window in range(6):
            t0 = float(window)
            for _ in range(rng.randint(0, 12)):
                start = t0 + rng.choice([0.0, 0.25, 0.5, 1.0])
                end = min(start + rng.choice([0.0, 0.25, 0.5]), t0 + 1.0)
                unit = rng.choice(["u", "v", "cpu"])
                tracer.record(start, end, "x", unit)
                records.append((start, end, unit))
            for since in (0.0, t0, t0 + 0.25, t0 + 1.0):
                expect = Tracer()
                for start, end, unit in records:
                    if start >= since:
                        expect.record(start, end, "x", unit)
                assert tracer.busy_seconds(since=since) == expect.busy_seconds()

    def test_span_and_len(self):
        tracer = Tracer()
        assert tracer.span() is None
        tracer.record(1.0, 2.0, "a", "u")
        tracer.record(0.5, 1.5, "b", "v")
        assert tracer.span() == (0.5, 2.0)
        assert len(tracer) == 2

    def test_clear(self):
        tracer = Tracer()
        tracer.record(0.0, 1.0, "a", "u")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.busy_seconds() == {}

    def test_by_unit(self):
        tracer = Tracer()
        tracer.record(0.0, 1.0, "transfer", "tpu0")
        tracer.record(0.0, 1.0, "instruction", "tpu1")
        assert len(tracer.by_unit("tpu0")) == 1
