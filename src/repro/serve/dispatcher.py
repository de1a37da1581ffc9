"""Fault-tolerant dispatch of lowered groups onto the simulated TPUs.

A :class:`DevicePool` owns one router task and one worker task per
Edge TPU.  The router assigns each :class:`DispatchWork` item to the
least-loaded healthy device (work-conserving FCFS, like the DES
executor's shared-queue workers); workers charge the group's modeled
service time (:func:`repro.runtime.executor.group_service_seconds`)
against real time and drive the fault-tolerance machinery:

* **fault hook** — each device's :meth:`check_fault` runs before a
  group is charged; an armed injector raises
  :class:`~repro.errors.DeviceFailure` mid-stream;
* **preemption** (:meth:`DevicePool.preempt`) — a higher-priority batch
  may pull *not-yet-started* lower-priority requests back out of the
  device queues; every removed group retires here and the owning
  request is handed back to the caller for un-coalescing and
  re-admission, so exactly-once is untouched (requests with any group
  already started on a device are never preempted);
* **bounded retries** — a failed group is requeued onto a different
  device (the observed-failed one is excluded) up to ``max_retries``
  times before the owning request fails;
* **circuit breaker** — ``breaker_threshold`` consecutive failures open
  a device's breaker for ``breaker_cooldown`` real seconds; an open
  device receives no work, and a half-open probe follows the cooldown;
* **integrity verification** (``integrity="abft"|"vote"``) — after a
  group's service time is charged, the worker transmits the operation's
  expected int8 tiles through the device's modeled PCIe return path
  (where armed corruption injectors silently mangle bytes) and checks
  them against the Tensorizer's recorded checksums (or a witness
  device's copy, in ``vote`` mode).  A detection fails the group
  *without* write-back, feeds the device's **quarantine** score
  (distinct from the circuit breaker — see
  :class:`repro.integrity.QuarantineManager`), and requeues the work
  elsewhere; only cleanly verified tiles are written into the
  delivered result, so delivered bytes are bit-identical to a clean
  run.

Delivery is exactly-once by construction: group completions decrement
the owning request's outstanding count, and both resolve and reject
paths go through the :class:`ServeRequest` once-only guards.

The pool exposes a campaign hook: assign :attr:`DevicePool.observer`
before :meth:`DevicePool.start` and every lifecycle transition
(``dispatch``, ``failure``, ``retry``, ``give-up``, ``timeout``,
``deliver``, ``bounce``, ``drop``, ``sdc``, ``migrate``) is reported
with its serve ID and device.  The conformance fault-injection campaigns replay these
event streams to prove the zero-lost / exactly-once invariants from the
outside rather than trusting the pool's own counters.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set, Tuple

from repro.errors import DeviceFailure, RequestTimeout, SilentDataCorruption
from repro.host.platform import Platform
from repro.integrity import IntegrityVerifier, QuarantineManager
from repro.runtime.executor import group_service_seconds
from repro.runtime.scheduler import DispatchGroup, SchedulePolicy
from repro.serve.metrics import ServingMetrics
from repro.serve.request import ServeRequest
from repro.shard.merge import MergeError
from repro.shard.profile import ShardProfile
from repro.telemetry import SpanTracer, get_tracer

#: Signature of the campaign hook: ``observer(event, serve_id, device)``.
#: ``device`` is the TPU index the event concerns, or -1 when the event
#: is not bound to one (router drops, give-ups after the last retry).
DispatchObserver = Callable[[str, int, int], None]


@dataclass
class DispatchWork:
    """One dispatch group bound to its owning request."""

    group: DispatchGroup
    sreq: ServeRequest
    attempts: int = 0
    #: Devices observed failing this work item (never re-tried first).
    excluded: Set[int] = field(default_factory=set)
    #: Integrity-verification failures this work item has survived; a
    #: later clean delivery counts as an SDC *correction*.
    sdc_attempts: int = 0
    #: Shard placement (repro.shard): the planner's preferred device.
    #: The router honors the hint while that device is schedulable and
    #: migrates the work (counting it) when it is not.
    device_hint: Optional[int] = None
    #: Index of the owning shard segment, or None when unsharded.
    segment: Optional[int] = None
    #: Output row span this group produces ``[start, stop)``; drives
    #: the row-merge buffer on delivery.
    rows: Optional[Tuple[int, int]] = None


class CircuitBreaker:
    """Consecutive-failure breaker with a real-time cooldown."""

    def __init__(
        self,
        threshold: int,
        cooldown_seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown_seconds < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown_seconds}")
        self.threshold = threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self.consecutive_failures = 0
        self.opened = 0  # lifetime count of open transitions
        self._open_until: Optional[float] = None

    @property
    def is_open(self) -> bool:
        """True while the device is quarantined."""
        return self._open_until is not None and self._clock() < self._open_until

    @property
    def reopens_at(self) -> Optional[float]:
        """Monotonic instant the breaker half-opens, or None when closed.

        A breaker that has never opened (or has fully re-closed after a
        success) has no pending release instant; returning a ``-1.0``
        sentinel here used to leak a fake "monotonic instant" into
        snapshots and min()-style release computations.
        """
        return self._open_until if self.is_open else None

    def record_failure(self) -> None:
        """Count a failure; open the breaker at the threshold."""
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.threshold:
            self._open_until = self._clock() + self.cooldown_seconds
            self.opened += 1
            # Half-open probe: one more failure re-opens immediately.
            self.consecutive_failures = self.threshold - 1

    def record_success(self) -> None:
        """A completed group closes the breaker fully."""
        self.consecutive_failures = 0
        self._open_until = None


class DevicePool:
    """Router + per-device workers over a platform's simulated TPUs."""

    def __init__(
        self,
        platform: Platform,
        metrics: ServingMetrics,
        *,
        policy: Optional[SchedulePolicy] = None,
        max_retries: int = 3,
        breaker_threshold: int = 2,
        breaker_cooldown: float = 0.05,
        time_scale: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[SpanTracer] = None,
        integrity: str = "off",
        quarantine_seconds: float = 0.05,
        quarantine_threshold: float = 1.0,
        shard_profile: Optional[ShardProfile] = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if time_scale < 0:
            raise ValueError(f"time_scale must be >= 0, got {time_scale}")
        if integrity not in ("off", "abft", "vote"):
            raise ValueError(
                f"integrity must be 'off', 'abft' or 'vote', got {integrity!r}"
            )
        self.platform = platform
        self.metrics = metrics
        self.policy = policy or SchedulePolicy()
        self.max_retries = max_retries
        self.time_scale = time_scale
        #: SDC-defense mode; "off" skips verification entirely.
        self.integrity = integrity
        self._verifier = IntegrityVerifier(integrity) if integrity != "off" else None
        #: Suspicion scores / quarantine state, present only when the
        #: integrity layer is on (shares the pool's injectable clock).
        self.quarantine: Optional[QuarantineManager] = (
            QuarantineManager(
                platform.num_tpus,
                clock=clock,
                threshold=quarantine_threshold,
                quarantine_seconds=quarantine_seconds,
            )
            if integrity != "off"
            else None
        )
        #: The pool's single time base.  Deadline checks, breaker
        #: cooldowns, and latency accounting all read this clock — a
        #: fake clock in tests therefore governs *every* time decision.
        self._clock = clock
        self._tracer = tracer if tracer is not None else get_tracer()
        #: Per-device execution profile the segmentation planner reads;
        #: workers feed it one observation per successfully executed
        #: group (the span-profile loop of arXiv 2503.01025).
        self.shard_profile = shard_profile
        self.breakers = [
            CircuitBreaker(breaker_threshold, breaker_cooldown, clock=clock)
            for _ in range(platform.num_tpus)
        ]
        self._inbox: "asyncio.Queue[DispatchWork]" = asyncio.Queue()
        self._device_queues: List["asyncio.Queue[DispatchWork]"] = [
            asyncio.Queue() for _ in range(platform.num_tpus)
        ]
        self._tasks: List["asyncio.Task"] = []
        self._in_flight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        #: Campaign hook; see the module docstring.  Exceptions it raises
        #: are deliberately NOT swallowed — a conformance assertion firing
        #: inside the hook must fail the run, not vanish into a worker.
        self.observer: Optional[DispatchObserver] = None
        # Uncontended host<->device transfer latency per device path.
        self._transfer_fns = [
            self._make_transfer_fn(i) for i in range(platform.num_tpus)
        ]

    def _make_transfer_fn(self, tpu_index: int) -> Callable[[int], float]:
        links = self.platform.topology.path_links(tpu_index)

        def transfer_seconds(nbytes: int) -> float:
            if nbytes <= 0:
                return 0.0
            return sum(link.occupancy_seconds(nbytes) for link in links)

        return transfer_seconds

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Spawn the router and one worker per device (idempotent)."""
        if self._tasks:
            return
        loop = asyncio.get_running_loop()
        self._tasks.append(loop.create_task(self._router(), name="serve-router"))
        for i in range(self.platform.num_tpus):
            self._tasks.append(
                loop.create_task(self._worker(i), name=f"serve-worker-tpu{i}")
            )

    async def stop(self) -> None:
        """Cancel router and workers; pending work is abandoned."""
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    async def drain(self) -> None:
        """Wait until every submitted work item has retired."""
        await self._idle.wait()

    @property
    def in_flight(self) -> int:
        """Work items submitted but not yet retired."""
        return self._in_flight

    # -- submission -----------------------------------------------------

    def submit(self, work: DispatchWork) -> None:
        """Queue one dispatch group for routing."""
        self._in_flight += 1
        self._idle.clear()
        self._inbox.put_nowait(work)

    def _retire(self) -> None:
        self._in_flight -= 1
        if self._in_flight == 0:
            self._idle.set()

    def preempt(self, below_priority: int) -> List[ServeRequest]:
        """Remove queued work of strictly lower priority; return owners.

        Eligibility is conservative: a request is pulled only when *all*
        its outstanding groups are still sitting in the router inbox or
        a device queue and none has started executing — preempting work
        a device already touched would force re-execution and break the
        busy/exactly-once accounting.  Removed groups retire here; the
        caller (the server's front door) resets the request's lowering
        state, reports the ``preempt`` event and re-admits it.
        """
        queues: List["asyncio.Queue[DispatchWork]"] = [
            self._inbox, *self._device_queues
        ]
        queued: dict = {}
        for queue in queues:
            for work in queue._queue:  # deque snapshot; loop not running here
                queued.setdefault(work.sreq.serve_id, []).append(work)
        victims: Set[int] = set()
        owners: List[ServeRequest] = []
        for serve_id, works in queued.items():
            sreq = works[0].sreq
            if (
                sreq.priority > below_priority
                and not sreq.failed
                and sreq.started == 0
                and len(works) == sreq.outstanding
            ):
                victims.add(serve_id)
                owners.append(sreq)
        if not victims:
            return []
        for queue in queues:
            kept: List[DispatchWork] = []
            while True:
                try:
                    kept.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            for work in kept:
                if work.sreq.serve_id in victims:
                    self._retire()
                else:
                    queue.put_nowait(work)
        return owners

    def _emit(self, event: str, sreq: ServeRequest, device: int = -1) -> None:
        if self.observer is not None:
            self.observer(event, sreq.serve_id, device)
        if self._tracer.enabled and event != "dispatch":
            # "dispatch" is subsumed by the worker's exec span; the rest
            # are lifecycle instants (retry, timeout, breaker bounce...).
            self._tracer.instant(
                event,
                cat="serve.lifecycle",
                track=f"tpu{device}" if device >= 0 else "router",
                serve_id=sreq.serve_id,
            )

    # -- routing --------------------------------------------------------

    def _available(self, index: int) -> bool:
        """Schedulable: breaker closed AND not under SDC quarantine."""
        if self.breakers[index].is_open:
            return False
        if self.quarantine is not None and self.quarantine.is_quarantined(index):
            return False
        return True

    def available_devices(self) -> List[int]:
        """Currently schedulable device indices (the planner's pool)."""
        return [i for i in range(len(self.breakers)) if self._available(i)]

    def _candidates(self, work: DispatchWork) -> List[int]:
        """Healthy routing targets, preferring never-failed devices."""
        ready = self.available_devices()
        fresh = [i for i in ready if i not in work.excluded]
        # Fall back to a previously failed device only when nothing else
        # is available (single-TPU pools, transient faults).
        return fresh or ready

    async def _router(self) -> None:
        while True:
            work = await self._inbox.get()
            if work.sreq.failed:
                self._emit("drop", work.sreq)
                self._retire()
                continue
            while True:
                candidates = self._candidates(work)
                if candidates:
                    if work.device_hint in candidates:
                        pick = work.device_hint
                    else:
                        pick = min(
                            candidates,
                            key=lambda i: self._device_queues[i].qsize(),
                        )
                        if work.device_hint is not None:
                            # The planned device is excluded, breaker-open
                            # or quarantined: the segment migrates to the
                            # least-loaded survivor and re-pins there.
                            work.device_hint = pick
                            self.metrics.shard_migrations += 1
                            self._emit("migrate", work.sreq, pick)
                    self._device_queues[pick].put_nowait(work)
                    break
                # Every device is unavailable (breaker open or
                # quarantined): wait for the earliest release instant —
                # breaker half-open or quarantine probation — then
                # re-evaluate.
                releases = [
                    r for r in (b.reopens_at for b in self.breakers) if r is not None
                ]
                if self.quarantine is not None:
                    releases += [
                        self.quarantine.release_at(i)
                        for i in range(len(self.breakers))
                        if self.quarantine.is_quarantined(i)
                    ]
                reopen = min(releases) if releases else self._clock()
                delay = max(reopen - self._clock(), 0.0)
                await asyncio.sleep(min(delay, 0.05) or 0.001)

    # -- execution ------------------------------------------------------

    async def _worker(self, tpu_index: int) -> None:
        device = self.platform.devices[tpu_index]
        breaker = self.breakers[tpu_index]
        queue = self._device_queues[tpu_index]
        while True:
            work = await queue.get()
            sreq = work.sreq
            if sreq.failed:
                self._emit("drop", sreq, tpu_index)
                self._retire()
                continue
            if breaker.is_open or (
                self.quarantine is not None
                and self.quarantine.is_quarantined(tpu_index)
            ):
                # The breaker opened (or the device was quarantined)
                # after this work was queued here: bounce it back to the
                # router (not a failure, not a retry — the work never
                # touched the device).
                self._emit("bounce", sreq, tpu_index)
                self._inbox.put_nowait(work)
                continue
            now = self._clock()
            if sreq.expired(now):
                if sreq.reject(RequestTimeout(
                    f"request {sreq.serve_id} expired before dispatch"
                )):
                    self.metrics.record_timeout(sreq)
                self._emit("timeout", sreq, tpu_index)
                self._retire()
                continue
            sreq.started += 1  # past this point the request is not preemptible
            span = self._tracer.begin(
                "exec_group",
                cat="device",
                track=device.name,
                serve_id=sreq.serve_id,
                attempt=work.attempts,
                instructions=work.group.instruction_count,
            )
            seg_span = None
            if work.segment is not None:
                seg_span = self._tracer.begin(
                    "segment_exec",
                    cat="shard",
                    track=device.name,
                    serve_id=sreq.serve_id,
                    segment=work.segment,
                    rows=list(work.rows) if work.rows is not None else None,
                    instructions=work.group.instruction_count,
                )
            try:
                # Fault hook: an armed injector trips here, modeling the
                # device dying while holding the group.
                self._emit("dispatch", sreq, tpu_index)
                device.check_fault(work.group.instruction_count)
                cost = group_service_seconds(
                    work.group, device, self._transfer_fns[tpu_index], self.policy
                )
                if cost.service_seconds > 0 and self.time_scale > 0:
                    await asyncio.sleep(cost.service_seconds * self.time_scale)
                else:
                    await asyncio.sleep(0)
            except DeviceFailure as exc:
                self._tracer.end(span.set(outcome="failure"))
                if seg_span is not None:
                    self._tracer.end(seg_span.set(outcome="failure"))
                opened_before = breaker.opened
                breaker.record_failure()
                if breaker.opened > opened_before:
                    self._tracer.instant(
                        "breaker_open",
                        cat="serve.lifecycle",
                        track=device.name,
                        serve_id=sreq.serve_id,
                    )
                self.metrics.record_device_failure(device.name)
                self._emit("failure", sreq, tpu_index)
                self._requeue(work, tpu_index, exc)
                continue
            # Integrity verification: transmit the group's expected
            # tiles through the device's wire-return path (where armed
            # corruption injectors fire) and compare against the plan's
            # checksums.  Detection means the device answered with wrong
            # bytes: no write-back, no success accounting — the group is
            # requeued elsewhere and the device's quarantine score (not
            # its breaker) takes the hit.
            plan = getattr(sreq.op, "integrity", None)
            if self._verifier is not None and plan is not None:
                vspan = self._tracer.begin(
                    "verify_group",
                    cat="integrity",
                    track=device.name,
                    serve_id=sreq.serve_id,
                )
                witness_index = (
                    self._pick_witness(tpu_index)
                    if self._verifier.mode == "vote"
                    else None
                )
                witness = (
                    None
                    if witness_index is None
                    else self.platform.devices[witness_index]
                )
                verdict = self._verifier.verify_op(
                    plan,
                    [instr.label for instr in work.group.instrs],
                    device,
                    witness,
                )
                self.metrics.tiles_verified += verdict.checked
                if verdict.witness_flags and witness_index is not None:
                    # Vote adjudication: this device's copy passed the
                    # checksums, the witness's did not — the group still
                    # delivers, but the witness is caught corrupting.
                    self.metrics.vote_adjudications += verdict.witness_flags
                    self._record_sdc(witness_index, verdict.witness_flags, sreq)
                if not verdict.ok:
                    self._tracer.end(
                        vspan.set(outcome="sdc", detections=len(verdict.detections))
                    )
                    self._tracer.end(span.set(outcome="sdc"))
                    if seg_span is not None:
                        self._tracer.end(seg_span.set(outcome="sdc"))
                    self._record_sdc(tpu_index, len(verdict.detections), sreq)
                    work.sdc_attempts += 1
                    worst = verdict.detections[0]
                    self._requeue(work, tpu_index, SilentDataCorruption(
                        f"{device.name}: {len(verdict.detections)} corrupted "
                        f"tile(s) detected by {worst.kind} check "
                        f"(max deviation {worst.max_deviation:.1f} quanta)",
                        device=device.name,
                        detections=len(verdict.detections),
                    ))
                    continue
                # Clean: install the verified device-returned bytes into
                # the delivered result (bit-identical to the host's own
                # requantize for an honest transmission).
                verdict.apply(sreq.op.result)
                if self.quarantine is not None:
                    self.quarantine.record_clean(tpu_index)
                if work.sdc_attempts:
                    self.metrics.sdc_corrected += 1
                self._tracer.end(vspan.set(outcome="ok", tiles=verdict.checked))
            # Success: accounting, then exactly-once delivery.  The span
            # carries the group's *modeled* device seconds only on this
            # path, mirroring busy_by_device — failed attempts charge no
            # device time, so trace totals reconcile with the metrics.
            span.add_device_seconds(cost.exec_seconds)
            self._tracer.end(
                span.set(outcome="ok", service_seconds=cost.service_seconds)
            )
            if seg_span is not None:
                self._tracer.end(
                    seg_span.set(outcome="ok", service_seconds=cost.service_seconds)
                )
            device.instructions_executed += work.group.instruction_count
            device.busy_seconds += cost.exec_seconds
            breaker.record_success()
            self.metrics.record_group(
                device.name,
                cost.exec_seconds,
                cost.bytes_in,
                cost.bytes_out,
                tier=sreq.tier,
            )
            if self.shard_profile is not None:
                # Feed the segmentation profile the same observation the
                # exec_group span records: this group's instructions took
                # this modeled service time on this device.
                self.shard_profile.observe(
                    tpu_index, work.group.instruction_count, cost.service_seconds
                )
            if work.rows is not None and sreq.merge is not None:
                # Install this group's verified output rows; overlap
                # would mean a duplicated delivery and raises loudly.
                sreq.merge.write(
                    work.rows[0],
                    work.rows[1],
                    sreq.op.result[work.rows[0]:work.rows[1]],
                )
            sreq.outstanding -= 1
            if sreq.outstanding == 0:
                # Deadline holds at *delivery*, not just at dispatch: a
                # result computed after its budget elapsed is a miss —
                # returning it late would make per-tier p99 meaningless.
                if sreq.expired(self._clock()):
                    if sreq.reject(RequestTimeout(
                        f"request {sreq.serve_id} completed after its deadline"
                    )):
                        self.metrics.record_timeout(sreq)
                    self._emit("timeout", sreq, tpu_index)
                    self._retire()
                    continue
                if sreq.merge is not None:
                    try:
                        sreq.op.result = sreq.merge.finalize()
                    except MergeError as exc:
                        if sreq.reject(exc):
                            self.metrics.failed += 1
                        self._retire()
                        continue
                    self.metrics.shard_merged += 1
                if self.metrics.record_delivery(sreq, self._clock()):
                    self._emit("deliver", sreq, tpu_index)
            self._retire()

    def _pick_witness(self, primary: int) -> Optional[int]:
        """Second device for vote mode: nearest available non-primary."""
        n = len(self.breakers)
        for step in range(1, n):
            i = (primary + step) % n
            if self._available(i):
                return i
        return None

    def _record_sdc(self, tpu_index: int, tiles: int, sreq: ServeRequest) -> None:
        """Account one SDC incident on a device (metrics + quarantine)."""
        name = self.platform.devices[tpu_index].name
        self.metrics.record_sdc(name, tiles)
        if self.quarantine is not None and self.quarantine.record_sdc(tpu_index):
            self.metrics.quarantines += 1
            self._tracer.instant(
                "quarantine",
                cat="serve.lifecycle",
                track=name,
                serve_id=sreq.serve_id,
            )
        self._emit("sdc", sreq, tpu_index)

    def _requeue(self, work: DispatchWork, tpu_index: int, exc: DeviceFailure) -> None:
        """Retry a failed group elsewhere, or fail its request."""
        work.attempts += 1
        work.excluded.add(tpu_index)
        work.sreq.retries += 1
        if work.attempts > self.max_retries:
            if work.sreq.reject(DeviceFailure(
                f"dispatch group failed {work.attempts} times, giving up: {exc}",
                device=exc.device,
            )):
                self.metrics.failed += 1
            self._emit("give-up", work.sreq)
            self._retire()
            return
        self.metrics.retries += 1
        self._emit("retry", work.sreq, tpu_index)
        self._inbox.put_nowait(work)
