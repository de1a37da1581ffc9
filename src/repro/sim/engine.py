"""The event loop and process model of the DES kernel."""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import SimEvent, Timeout


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
        if self._triggered:
            # The process already finished (e.g. it was interrupted while
            # a timeout was still pending); stale wakeups are ignored.
            return
        try:
            target = advance()
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # propagate failures to waiters
            if not self._callbacks and not self._triggered:
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

    def interrupt(self, reason: str = "interrupted") -> None:
        """Throw :class:`SimulationError` into the process at this instant."""
        exc = SimulationError(reason)
        self.engine.schedule(0.0, lambda _e: self._step(lambda: self._generator.throw(exc)), None)


class Engine:
    """A deterministic discrete-event engine.

    Events scheduled for the same instant run in FIFO scheduling order,
    which makes every simulation in this library fully reproducible.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Callable[[Optional[SimEvent]], None], Optional[SimEvent]]] = []
        self._seq = itertools.count()
        self._processes: List[Process] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling ---------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[[Optional[SimEvent]], None],
        event: Optional[SimEvent],
    ) -> None:
        """Schedule *callback(event)* to run *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._queue, (self._now + delay, next(self._seq), callback, event))

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

    # -- running ------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains or simulated time *until*.

        Returns the final simulated time.  Raises :class:`DeadlockError`
        if the queue drains while some started process never finished —
        that always indicates a lost wakeup in the model being simulated.
        """
        while self._queue:
            time, _seq, callback, event = self._queue[0]
            if until is not None and time > until:
                self._now = until
                return self._now
            heapq.heappop(self._queue)
            if time < self._now:  # pragma: no cover - guarded by schedule()
                raise SimulationError("event queue went backwards in time")
            self._now = time
            callback(event)
        stuck = [p for p in self._processes if not p.triggered]
        if stuck and until is None:
            names = ", ".join(repr(p.name) for p in stuck[:8])
            raise DeadlockError(
                f"simulation ran out of events with {len(stuck)} process(es) still waiting: {names}"
            )
        return self._now

    def advance_to(self, time: float) -> float:
        """Run every event due by *time*, then move the clock to *time*.

        For models that compute a stretch of simulated time outside the
        event queue (the runtime executor replays each ``sync()`` this
        way) and then hand the clock back to the engine.
        """
        if time < self._now:
            raise SimulationError(f"cannot move the clock back from {self._now} to {time}")
        self.run(until=time)
        self._now = time
        return time

    def run_process(self, generator: Generator[SimEvent, Any, Any], name: str = "") -> Any:
        """Convenience: start *generator*, run to completion, return its value."""
        proc = self.process(generator, name=name)
        self.run()
        return proc.value
