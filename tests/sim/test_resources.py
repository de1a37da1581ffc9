"""Unit tests for the DES reference's Resource and Store."""

import pytest

from repro.conformance.des_kernel import Engine, Resource, Store
from repro.errors import SimulationError


def hold(eng, resource, log, name, busy):
    grant = yield resource.request()
    log.append(("start", name, eng.now))
    yield eng.timeout(busy)
    resource.release(grant)
    log.append(("end", name, eng.now))


def test_resource_serializes_at_capacity_one():
    eng = Engine()
    res = Resource(eng, capacity=1)
    log = []
    eng.process(hold(eng, res, log, "a", 2.0))
    eng.process(hold(eng, res, log, "b", 1.0))
    eng.run()
    assert log == [
        ("start", "a", 0.0),
        ("end", "a", 2.0),
        ("start", "b", 2.0),
        ("end", "b", 3.0),
    ]


def test_resource_capacity_two_admits_pair():
    eng = Engine()
    res = Resource(eng, capacity=2)
    log = []
    for name in ("a", "b", "c"):
        eng.process(hold(eng, res, log, name, 1.0))
    eng.run()
    starts = {name: t for kind, name, t in log if kind == "start"}
    assert starts == {"a": 0.0, "b": 0.0, "c": 1.0}


def test_resource_fifo_ordering_of_waiters():
    eng = Engine()
    res = Resource(eng, capacity=1)
    log = []
    for name in ("a", "b", "c", "d"):
        eng.process(hold(eng, res, log, name, 1.0))
    eng.run()
    started = [name for kind, name, _t in log if kind == "start"]
    assert started == ["a", "b", "c", "d"]


def test_release_without_request_raises():
    eng = Engine()
    res = Resource(eng)
    with pytest.raises(SimulationError):
        res.release()


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Resource(Engine(), capacity=0)


def test_store_get_blocks_until_put():
    eng = Engine()
    store = Store(eng)
    log = []

    def consumer():
        item = yield store.get()
        log.append((eng.now, item))

    def producer():
        yield eng.timeout(2.0)
        store.put("x")

    eng.process(consumer())
    eng.process(producer())
    eng.run()
    assert log == [(2.0, "x")]


def test_store_preserves_fifo_order():
    eng = Engine()
    store = Store(eng)
    for item in (1, 2, 3):
        store.put(item)
    assert len(store) == 3
    got = []

    def consumer():
        for _ in range(3):
            got.append((yield store.get()))

    eng.run_process(consumer())
    assert got == [1, 2, 3]


def test_store_multiple_blocked_getters_served_fifo():
    eng = Engine()
    store = Store(eng)
    got = []

    def consumer(name):
        item = yield store.get()
        got.append((name, item))

    eng.process(consumer("first"))
    eng.process(consumer("second"))

    def producer():
        yield eng.timeout(1.0)
        store.put("x")
        store.put("y")

    eng.process(producer())
    eng.run()
    assert got == [("first", "x"), ("second", "y")]
