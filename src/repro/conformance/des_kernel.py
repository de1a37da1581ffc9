"""The generator-based discrete-event simulation (DES) kernel of the DES
reference (:mod:`repro.conformance.des`).

Production replays each ``sync()`` without generators
(:mod:`repro.runtime.executor`); this kernel runs the model that replay
must equal bit for bit.  It follows the familiar simpy-style process
model:

>>> from repro.conformance.des_kernel import Engine
>>> eng = Engine()
>>> log = []
>>> def worker(eng, name, delay):
...     yield eng.timeout(delay)
...     log.append((eng.now, name))
>>> _ = eng.process(worker(eng, "a", 2.0))
>>> _ = eng.process(worker(eng, "b", 1.0))
>>> eng.run()
2.0
>>> log
[(1.0, 'b'), (2.0, 'a')]

An event is a one-shot waitable: it starts *pending*, is *triggered*
exactly once with an optional value (or an exception for failure), and
then notifies every registered callback.  Processes wait on events by
``yield``-ing them.  A PCIe link segment is a ``Resource(capacity=1)``
and the runtime's dispatch queue a ``Store``.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

from repro.errors import DeadlockError, SimulationError


class SimEvent:
    """A one-shot waitable in simulated time."""

    __slots__ = ("engine", "name", "_callbacks", "_triggered", "_value", "_exception")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._callbacks: List[Callable[[SimEvent], None]] = []
        self._triggered = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The success value; raises if the event failed or is pending."""
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} has not been triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def ok(self) -> bool:
        """True if the event was triggered successfully."""
        return self._triggered and self._exception is None

    def succeed(self, value: Any = None) -> "SimEvent":
        """Trigger the event successfully, delivering *value* to waiters."""
        self._trigger(value=value, exception=None)
        return self

    def fail(self, exception: BaseException) -> "SimEvent":
        """Trigger the event with an exception; waiters will re-raise it."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._trigger(value=None, exception=exception)
        return self

    def _trigger(self, value: Any, exception: Optional[BaseException]) -> None:
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        self._exception = exception
        # Callbacks run at the current simulated instant, in FIFO order.
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self.engine.schedule(0.0, callback, self)

    def add_callback(self, callback: Callable[["SimEvent"], None]) -> None:
        """Register *callback*; runs immediately if already triggered."""
        if self._triggered:
            self.engine.schedule(0.0, callback, self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {self.name!r} {state}>"


class Timeout(SimEvent):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(engine, name=f"timeout({delay:g})")
        self.delay = float(delay)
        engine.schedule(self.delay, lambda _evt: self.succeed(value), self)


class AllOf(SimEvent):
    """Triggers when every child event has triggered.

    Succeeds with the list of child values (in construction order); fails
    with the first child failure.
    """

    __slots__ = ("_children", "_pending")

    def __init__(self, engine: "Engine", events: Iterable[SimEvent]) -> None:
        super().__init__(engine, name="all_of")
        self._children = list(events)
        self._pending = len(self._children)
        if not self._children:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._child_done)

    def _child_done(self, child: SimEvent) -> None:
        if self._triggered:
            return
        if not child.ok:
            self.fail(child._exception)  # noqa: SLF001 - kernel internals
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([c.value for c in self._children])


class Process(SimEvent):
    """A running simulation process.

    Wraps a generator that yields :class:`SimEvent` instances.  The process
    itself is an event: it triggers with the generator's return value when
    the generator finishes, so processes can wait on other processes.
    """

    __slots__ = ("_generator",)

    def __init__(self, engine: "Engine", generator: Generator[SimEvent, Any, Any], name: str = "") -> None:
        super().__init__(engine, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        # Kick off at the current instant.
        engine.schedule(0.0, self._resume_ok, None)

    def _resume_ok(self, _evt: Optional[SimEvent]) -> None:
        self._step(lambda: self._generator.send(None if _evt is None else _evt.value))

    def _resume_from(self, evt: SimEvent) -> None:
        if evt.ok:
            self._step(lambda: self._generator.send(evt.value))
        else:
            exc = evt._exception  # noqa: SLF001 - kernel internals
            self._step(lambda: self._generator.throw(exc))

    def _step(self, advance: Callable[[], Any]) -> None:
        try:
            target = advance()
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # propagate failures to waiters
            if not self._callbacks:
                # Nobody is waiting on this process: surface the error
                # immediately rather than swallowing it.
                raise
            self.fail(exc)
            return
        if not isinstance(target, SimEvent):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield SimEvent instances"
            )
        target.add_callback(self._resume_from)


class Engine:
    """A deterministic discrete-event engine.

    Events scheduled for the same instant run in FIFO scheduling order,
    which makes every simulation fully reproducible.  ``now`` is the
    simulated time in seconds; a model that continues an earlier clock
    sets it before scheduling anything.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: List[Tuple[float, int, Callable[[Optional[SimEvent]], None], Optional[SimEvent]]] = []
        self._seq = itertools.count()
        self._processes: List[Process] = []

    def schedule(
        self,
        delay: float,
        callback: Callable[[Optional[SimEvent]], None],
        event: Optional[SimEvent],
    ) -> None:
        """Schedule *callback(event)* to run *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._queue, (self.now + delay, next(self._seq), callback, event))

    def event(self, name: str = "") -> SimEvent:
        """Create a fresh pending event owned by this engine."""
        return SimEvent(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after *delay* simulated seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[SimEvent, Any, Any], name: str = "") -> Process:
        """Start a new process from *generator* and return it."""
        proc = Process(self, generator, name=name)
        self._processes.append(proc)
        return proc

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains or simulated time *until*.

        Returns the final simulated time.  Raises :class:`DeadlockError`
        if the queue drains while some started process never finished —
        that always indicates a lost wakeup in the model being simulated.
        """
        while self._queue:
            time, _seq, callback, event = self._queue[0]
            if until is not None and time > until:
                self.now = until
                return self.now
            heapq.heappop(self._queue)
            self.now = time
            callback(event)
        stuck = [p for p in self._processes if not p.triggered]
        if stuck and until is None:
            names = ", ".join(repr(p.name) for p in stuck[:8])
            raise DeadlockError(
                f"simulation ran out of events with {len(stuck)} process(es) still waiting: {names}"
            )
        return self.now

    def run_process(self, generator: Generator[SimEvent, Any, Any], name: str = "") -> Any:
        """Convenience: start *generator*, run to completion, return its value."""
        proc = self.process(generator, name=name)
        self.run()
        return proc.value


class Resource:
    """A counted resource with FIFO granting.

    Usage from a process::

        grant = yield resource.request()
        try:
            yield engine.timeout(busy_time)
        finally:
            resource.release(grant)
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name or f"resource(cap={capacity})"
        self._in_use = 0
        self._waiters: Deque[SimEvent] = deque()

    def request(self) -> SimEvent:
        """Return an event that triggers (with this resource) when granted."""
        evt = self.engine.event(name=f"{self.name}.request")
        if self._in_use < self.capacity:
            self._in_use += 1
            evt.succeed(self)
        else:
            self._waiters.append(evt)
        return evt

    def release(self, grant: Any = None) -> None:
        """Release one grant, handing it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without a matching request")
        if self._waiters:
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1


class Store:
    """An unbounded FIFO queue of items with blocking ``get``.

    ``put`` never blocks; ``get`` returns an event that triggers with the
    oldest item once one is available.
    """

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.name = name or "store"
        self._items: Deque[Any] = deque()
        self._getters: Deque[SimEvent] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Enqueue *item*, waking the oldest blocked getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> SimEvent:
        """Return an event that triggers with the next item."""
        evt = self.engine.event(name=f"{self.name}.get")
        if self._items:
            evt.succeed(self._items.popleft())
        else:
            self._getters.append(evt)
        return evt
