"""Unit tests for the DES reference's engine and process model."""

import pytest

from repro.conformance.des_kernel import AllOf, Engine
from repro.errors import DeadlockError, SimulationError


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_timeout_advances_clock():
    eng = Engine()

    def proc():
        yield eng.timeout(2.5)
        return eng.now

    assert eng.run_process(proc()) == 2.5


def test_processes_interleave_in_time_order():
    eng = Engine()
    log = []

    def worker(name, delay):
        yield eng.timeout(delay)
        log.append((eng.now, name))

    eng.process(worker("slow", 3.0))
    eng.process(worker("fast", 1.0))
    eng.run()
    assert log == [(1.0, "fast"), (3.0, "slow")]


def test_same_instant_events_run_fifo():
    eng = Engine()
    log = []

    def worker(name):
        yield eng.timeout(1.0)
        log.append(name)

    for name in "abc":
        eng.process(worker(name))
    eng.run()
    assert log == ["a", "b", "c"]


def test_process_return_value_propagates():
    eng = Engine()

    def inner():
        yield eng.timeout(1.0)
        return 42

    def outer():
        value = yield eng.process(inner())
        return value + 1

    assert eng.run_process(outer()) == 43


def test_process_exception_propagates_to_waiter():
    eng = Engine()

    def inner():
        yield eng.timeout(1.0)
        raise ValueError("boom")

    def outer():
        try:
            yield eng.process(inner())
        except ValueError as exc:
            return str(exc)

    assert eng.run_process(outer()) == "boom"


def test_unwaited_process_exception_surfaces():
    eng = Engine()

    def bad():
        yield eng.timeout(1.0)
        raise RuntimeError("unobserved")

    eng.process(bad())
    with pytest.raises(RuntimeError, match="unobserved"):
        eng.run()


def test_event_succeed_wakes_waiter_with_value():
    eng = Engine()
    gate = eng.event("gate")

    def opener():
        yield eng.timeout(5.0)
        gate.succeed("opened")

    def waiter():
        value = yield gate
        return (eng.now, value)

    eng.process(opener())
    assert eng.run_process(waiter()) == (5.0, "opened")


def test_event_cannot_trigger_twice():
    eng = Engine()
    evt = eng.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_value_before_trigger_raises():
    eng = Engine()
    with pytest.raises(SimulationError):
        _ = eng.event().value


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_yielding_non_event_is_an_error():
    eng = Engine()

    def bad():
        yield 3.0  # not a SimEvent

    eng.process(bad())
    with pytest.raises(SimulationError, match="must yield SimEvent"):
        eng.run()


def test_deadlock_detection():
    eng = Engine()

    def stuck():
        yield eng.event("never")

    eng.process(stuck())
    with pytest.raises(DeadlockError):
        eng.run()


def test_run_until_stops_early():
    eng = Engine()

    def worker():
        yield eng.timeout(10.0)

    eng.process(worker())
    assert eng.run(until=4.0) == 4.0
    assert eng.now == 4.0
    # Finishing the run completes the process.
    assert eng.run() == 10.0


def test_all_of_collects_values_in_order():
    eng = Engine()

    def proc():
        events = [eng.timeout(3.0, "c"), eng.timeout(1.0, "a"), eng.timeout(2.0, "b")]
        values = yield AllOf(eng, events)
        return (eng.now, values)

    assert eng.run_process(proc()) == (3.0, ["c", "a", "b"])


def test_all_of_empty_triggers_immediately():
    eng = Engine()

    def proc():
        values = yield AllOf(eng, [])
        return (eng.now, values)

    assert eng.run_process(proc()) == (0.0, [])


def test_nested_processes_share_one_clock():
    eng = Engine()
    marks = []

    def leaf(delay):
        yield eng.timeout(delay)
        marks.append(eng.now)

    def root():
        yield AllOf(eng, [eng.process(leaf(1.0)), eng.process(leaf(2.0))])
        return eng.now

    assert eng.run_process(root()) == 2.0
    assert marks == [1.0, 2.0]

