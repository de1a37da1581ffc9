"""The multi-tenant async serving front-end.

:class:`TpuServer` turns the batch-mode OPQ → Tensorizer → scheduler →
device stack (paper §6.1, Fig. 4) into a continuously-fed service:

1. clients :meth:`submit` :class:`OperationRequest`\\ s; admission
   control fast-rejects past capacity (:class:`~repro.errors.QueueFull`)
   and fair-queues across tenants;
2. the dispatch loop expires deadlines, drains a batch, and
   **coalesces** compatible GEMMs into groups that share one lowering;
3. each group is lowered, partitioned into dispatch groups by the
   locality scheduler, and handed to the fault-tolerant
   :class:`~repro.serve.dispatcher.DevicePool`.

Steps 1–2 are :class:`FrontDoor`, which the multi-process
:class:`~repro.mp.server.MpTpuServer` shares: the two servers differ
only in how a coalesced group is handed off and in which queued
requests a preemption may take back.

Time base: functional results are exact (computed at lowering, as in
the batch path); *service* time is the closed-form pipeline model from
:func:`repro.runtime.executor.group_service_seconds`, charged against
real asyncio time scaled by ``time_scale`` — so a load test exercises
true concurrency (admission, coalescing windows, retries, breakers)
without a discrete-event/asyncio bridge.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Mapping, Optional

import numpy as np

from repro.edgetpu.isa import Opcode
from repro.errors import LoadShed, RequestTimeout, ServingError
from repro.host.platform import Platform
from repro.plan import PlanCache
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.scheduler import SchedulePolicy, build_dispatch_groups
from repro.runtime.tensorizer import Tensorizer, TensorizerOptions
from repro.serve.admission import AdmissionController
from repro.serve.coalescer import coalesce
from repro.serve.dispatcher import DevicePool, DispatchWork
from repro.serve.metrics import ServingMetrics
from repro.serve.request import ServeRequest
from repro.serve.slo import OverloadController, SloPolicy
from repro.shard import MergeBuffer, ShardPlanner, ShardProfile
from repro.telemetry import (
    CounterRegistry,
    SpanTracer,
    device_counters,
    get_tracer,
    memory_counters,
    plan_counters,
    serving_counters,
    tensorizer_counters,
)


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one :class:`TpuServer` instance."""

    #: Admission-queue capacity (total pending requests).
    max_queue_depth: int = 256
    #: Per-tenant pending cap, or None for capacity-only backpressure.
    per_tenant_limit: Optional[int] = None
    #: Max requests drained per dispatch-loop turn.
    max_batch: int = 32
    #: Max requests merged into one coalesced GEMM lowering.
    max_coalesce: int = 16
    #: Dispatch-group retries after device failures.
    max_retries: int = 3
    #: Consecutive failures that open a device's circuit breaker.
    breaker_threshold: int = 2
    #: Real seconds an open breaker quarantines its device.
    breaker_cooldown: float = 0.05
    #: Real seconds charged per modeled service second (0 = no sleeping).
    time_scale: float = 1.0
    #: Locality/pipelining policy for dispatch-group formation and cost.
    policy: SchedulePolicy = field(default_factory=SchedulePolicy)
    #: Tensorizer options (tiling, scaling rule, ...).
    options: Optional[TensorizerOptions] = None
    #: SDC-defense mode: "off" (no verification, today's fast path),
    #: "abft" (checksum-verified GEMM tiles), or "vote" (dual-execution
    #: byte compare with checksum adjudication).  See repro.integrity.
    integrity: str = "off"
    #: Base real-seconds hold for an SDC-quarantined device.
    quarantine_seconds: float = 0.05
    #: AOT compiled-plan cache (:mod:`repro.plan`): lower each distinct
    #: lowering signature once, then bind cached plans to later requests
    #: with only per-request input quantization on the host.
    plan_cache: bool = True
    #: Plan-cache LRU bound (distinct live lowering signatures).
    plan_cache_entries: int = 256
    #: Multi-TPU segmentation (:mod:`repro.shard`): "auto" plans
    #: per-device segments for any request lowering to two or more
    #: dispatch groups; "off" keeps pure least-loaded group routing.
    shard: str = "auto"
    #: SLO policy (:mod:`repro.serve.slo`).  Attaching one switches
    #: admission to earliest-deadline-first, stamps tier priorities and
    #: default deadline budgets onto requests, and arms the overload
    #: shedding governor plus (when the policy allows) preemption of
    #: not-yet-dispatched lower-priority work.  None keeps the classic
    #: round-robin, shed-nothing behaviour.
    slo: Optional[SloPolicy] = None
    #: Admission scheduling: "auto" picks "edf" when an SLO policy is
    #: set and "rr" otherwise; explicit "rr"/"edf" override.
    scheduling: str = "auto"
    #: Overload shedding armed (MP workers set False: admission already
    #: happened in the parent, so a worker must never shed).
    shed_enabled: bool = True
    #: Energy-aware shard placement: within a request's deadline slack,
    #: candidates compete on §8.1 active joules instead of makespan.
    energy_aware: bool = False
    #: Fraction of a request's remaining deadline slack the energy-aware
    #: planner may spend as its latency budget.
    energy_headroom: float = 0.5


class FrontDoor:
    """The serving front end both servers share (the OPQ of §6.1).

    Admission (capacity, per-tenant share, SLO tiers, the shed
    governor), the client API, the dispatch loop (expire → sample depth
    → drain → governor observe → preempt → :func:`coalesce` → hand off)
    and the requeue half of preemption live here once.  A server
    supplies exactly two things:

    * :meth:`_hand_off` — run one coalesced group (lower and launch on
      the in-process pool, or route and ship to a worker process);
    * :meth:`_preemptible` — detach the queued requests a preemption
      may take back, given the most urgent priority in the batch;

    plus ``self.pool``, whose ``observer`` attribute is the campaign
    hook every lifecycle event is reported to.
    """

    pool: Any

    def __init__(
        self,
        config: Optional[ServeConfig],
        clock: Callable[[], float],
        tracer: Optional[SpanTracer],
        metrics: ServingMetrics,
    ) -> None:
        self.config = config or ServeConfig()
        self._clock = clock
        self.tracer = tracer if tracer is not None else get_tracer()
        if self.config.shard not in ("auto", "off"):
            raise ValueError(
                f"shard must be 'auto' or 'off', got {self.config.shard!r}"
            )
        if self.config.scheduling not in ("auto", "rr", "edf"):
            raise ValueError(
                f"scheduling must be 'auto', 'rr' or 'edf', "
                f"got {self.config.scheduling!r}"
            )
        self.metrics = metrics
        self.slo = self.config.slo
        scheduling = self.config.scheduling
        if scheduling == "auto":
            scheduling = "edf" if self.slo is not None else "rr"
        self.admission = AdmissionController(
            self.config.max_queue_depth,
            self.config.per_tenant_limit,
            scheduling=scheduling,
        )
        #: Hysteresis shed governor, armed only with an SLO policy (and
        #: not in MP workers, where the parent already admitted).
        self.overload: Optional[OverloadController] = (
            OverloadController(self.slo, self.config.max_queue_depth)
            if self.slo is not None and self.config.shed_enabled
            else None
        )
        #: Timeout count already fed to the overload governor.
        self._timeouts_seen = 0
        self._serve_seq = 0
        self._wakeup = asyncio.Event()
        self._loop_task: Optional["asyncio.Task"] = None
        self.started_at: Optional[float] = None

    # -- the two per-server hooks ---------------------------------------

    def _hand_off(self, group: List[ServeRequest]) -> None:
        """Run one coalesced group (members may have failed meanwhile)."""
        raise NotImplementedError

    def _preemptible(self, urgent: int) -> List[ServeRequest]:
        """Detach queued requests of priority strictly below *urgent*."""
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------

    def _start_dispatch(self) -> None:
        self._loop_task = asyncio.get_running_loop().create_task(
            self._dispatch_loop(), name="serve-dispatch"
        )

    async def _stop_dispatch(self) -> None:
        if self._loop_task is not None:
            self._loop_task.cancel()
            await asyncio.gather(self._loop_task, return_exceptions=True)
            self._loop_task = None

    async def __aenter__(self) -> "FrontDoor":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # -- client API -----------------------------------------------------

    def submit_nowait(
        self,
        request: OperationRequest,
        *,
        deadline_seconds: Optional[float] = None,
    ) -> "asyncio.Future":
        """Admit one request; raise :class:`QueueFull` synchronously.

        With an SLO policy, the tenant's tier stamps a priority and (for
        clients that pass no deadline) the tier's deadline budget; an
        engaged overload governor sheds sheddable tiers with a typed
        :class:`~repro.errors.LoadShed` before anything is enqueued.

        Returns the asyncio future the caller awaits for the functional
        result (a numpy array), or which raises
        :class:`~repro.errors.DeviceFailure` /
        :class:`~repro.errors.RequestTimeout`.
        """
        if self._loop_task is None:
            raise ServingError(
                f"server is not started; use 'async with {type(self).__name__}(...)'"
            )
        now = self._clock()
        self._serve_seq += 1
        serve_id = self._serve_seq
        # Stamp server-side identity: unique task ids keep lowered
        # instruction streams distinct, and a stable input name gives the
        # locality scheduler / residency model something to key on.
        request = dataclasses.replace(
            request,
            task_id=serve_id,
            input_name=request.input_name or f"serve{serve_id}",
        )
        tier_name, priority, sheddable = "", 0, True
        deadline = None if deadline_seconds is None else now + deadline_seconds
        if self.slo is not None:
            tier = self.slo.tier_of(request.tenant)
            tier_name, priority, sheddable = tier.name, tier.priority, tier.sheddable
            if deadline is None and tier.deadline_budget is not None:
                deadline = now + tier.deadline_budget
        sreq = ServeRequest(
            serve_id=serve_id,
            tenant=request.tenant,
            request=request,
            future=asyncio.get_running_loop().create_future(),
            submitted=now,
            deadline=deadline,
            tier=tier_name,
            priority=priority,
            sheddable=sheddable,
        )
        self.metrics.submitted += 1
        if tier_name:
            self.metrics.submitted_by_tier[tier_name] += 1
        if self.overload is not None and self.overload.should_shed(
            priority, sheddable
        ):
            self.metrics.record_shed(tier_name)
            self.tracer.instant(
                "shed", cat="serve", track="server", serve_id=serve_id, tier=tier_name
            )
            raise LoadShed(
                f"tier {tier_name!r} shed under overload "
                f"(level {self.overload.level}); retry later",
                tier=tier_name,
            )
        try:
            self.admission.offer(sreq)
        except Exception:
            self.metrics.rejected += 1
            self.tracer.instant(
                "reject", cat="serve", track="server", serve_id=serve_id
            )
            raise
        self.tracer.instant(
            "submit", cat="serve", track="server", serve_id=serve_id, tenant=request.tenant
        )
        self._wakeup.set()
        return sreq.future

    async def submit(
        self,
        request: OperationRequest,
        *,
        deadline_seconds: Optional[float] = None,
    ) -> np.ndarray:
        """Admit one request and await its result."""
        return await self.submit_nowait(request, deadline_seconds=deadline_seconds)

    async def gemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        tenant: str = "",
        quant: QuantMode = QuantMode.SCALE,
        chunks: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
    ) -> np.ndarray:
        """Convenience wrapper: submit one conv2D-style GEMM (§7.1.2)."""
        attrs: Mapping[str, Any] = (
            {"gemm": True} if chunks is None else {"gemm": True, "gemm_chunks": chunks}
        )
        request = OperationRequest(
            task_id=0,
            opcode=Opcode.CONV2D,
            inputs=(np.asarray(a), np.asarray(b)),
            quant=quant,
            attrs=attrs,
            tenant=tenant,
        )
        return await self.submit(request, deadline_seconds=deadline_seconds)

    # -- dispatch loop --------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            if self.admission.depth == 0:
                self._wakeup.clear()
                await self._wakeup.wait()
            # One cooperative tick lets concurrent submitters land in the
            # same drain — the serving-window analogue of batch lowering.
            await asyncio.sleep(0)
            now = self._clock()
            for sreq in self.admission.expire(now):
                if sreq.reject(RequestTimeout(
                    f"request {sreq.serve_id} expired in the admission queue"
                )):
                    self.metrics.record_timeout(sreq)
                    self._lifecycle("timeout", sreq)
            depth = self.admission.depth
            self.metrics.sample_queue_depth(depth)
            batch = self.admission.drain(self.config.max_batch)
            if self.overload is not None:
                # Misses per turn = total timeout delta, so deadline
                # expiries at the device queues (past admission) drive
                # the governor's EWMA too — the slow-death signal.
                misses = self.metrics.timeouts - self._timeouts_seen
                self._timeouts_seen = self.metrics.timeouts
                self.overload.observe(depth, misses, len(batch))
            if not batch:
                continue
            if self.slo is not None and self.slo.preempt:
                self._preempt(batch)
            sp = self.tracer.begin(
                "dispatch_batch", cat="serve", track="server", drained=len(batch)
            )
            for group in coalesce(batch, self.config.max_coalesce):
                self._hand_off(group)
            self.tracer.end(sp)

    def _preempt(self, batch: List[ServeRequest]) -> None:
        """Requeue queued lower-tier work ahead of an urgent batch.

        Victims are un-coalesced, their lowering state reset, and
        re-admitted through :meth:`AdmissionController.requeue` — an
        admitted request is never rejected on its way back.
        """
        urgent = min(s.priority for s in batch if not s.failed)
        for sreq in self._preemptible(urgent):
            sreq.op = None
            sreq.outstanding = 0
            sreq.merge = None
            sreq.preemptions += 1
            self.metrics.preemptions += 1
            self._lifecycle("preempt", sreq)
            self.admission.requeue(sreq)

    def _emit(self, event: str, serve_id: int, device: int = -1) -> None:
        """Report one lifecycle event to the campaign hook."""
        if self.pool.observer is not None:
            self.pool.observer(event, serve_id, device)

    def _lifecycle(self, event: str, sreq: ServeRequest) -> None:
        """A front-door transition: observer event plus tracer instant."""
        self._emit(event, sreq.serve_id)
        self.tracer.instant(
            event, cat="serve", track="server", serve_id=sreq.serve_id
        )


class TpuServer(FrontDoor):
    """Async serving layer over one simulated Edge TPU platform."""

    def __init__(
        self,
        platform: Optional[Platform] = None,
        config: Optional[ServeConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[SpanTracer] = None,
        shard_profile: Optional[ShardProfile] = None,
        metrics: Optional[ServingMetrics] = None,
    ) -> None:
        # *metrics* is injectable so a multi-process worker can use seeds
        # derived from its worker id (see :class:`ServingMetrics`).
        super().__init__(
            config, clock, tracer, metrics if metrics is not None else ServingMetrics()
        )
        self.platform = platform or Platform()
        # The integrity mode may arrive on ServeConfig (the serving-layer
        # knob) or on TensorizerOptions; the lowering side records the
        # checksum plans and the pool side verifies them, so both must
        # agree on one effective mode.
        options = self.config.options or TensorizerOptions()
        self.integrity = (
            self.config.integrity if self.config.integrity != "off" else options.integrity
        )
        if options.integrity != self.integrity:
            options = dataclasses.replace(options, integrity=self.integrity)
        self.plan_cache = (
            PlanCache(self.config.plan_cache_entries)
            if self.config.plan_cache
            else None
        )
        self.tensorizer = Tensorizer(
            self.platform.config.edgetpu,
            options,
            self.platform.cpu,
            tracer=self.tracer,
            plan_cache=self.plan_cache,
        )
        #: Per-device execution profile (pre-seeded in tests / shared
        #: across servers when passed in); the pool feeds it and the
        #: planner reads it, so split points follow measured rates.
        self.shard_profile = (
            shard_profile
            if shard_profile is not None
            else ShardProfile(self.platform.num_tpus)
        )
        self.shard_planner = (
            ShardPlanner(
                self.platform,
                profile=self.shard_profile,
                energy_aware=self.config.energy_aware,
            )
            if self.config.shard == "auto" and self.platform.num_tpus > 1
            else None
        )
        self.pool = DevicePool(
            self.platform,
            self.metrics,
            policy=self.config.policy,
            max_retries=self.config.max_retries,
            breaker_threshold=self.config.breaker_threshold,
            breaker_cooldown=self.config.breaker_cooldown,
            time_scale=self.config.time_scale,
            clock=self._clock,
            tracer=self.tracer,
            integrity=self.integrity,
            quarantine_seconds=self.config.quarantine_seconds,
            shard_profile=self.shard_profile,
        )

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Start the device pool and the dispatch loop (idempotent)."""
        if self._loop_task is not None:
            return
        self.started_at = self._clock()
        self.pool.start()
        self._start_dispatch()

    async def stop(self) -> None:
        """Stop the dispatch loop and device pool."""
        await self._stop_dispatch()
        await self.pool.stop()

    async def drain(self) -> None:
        """Wait for the admission queue and device pool to go idle."""
        while self.admission.depth > 0:
            self._wakeup.set()
            await asyncio.sleep(0)
        await self.pool.drain()
        # A dispatch-loop turn may still be lowering between queues.
        while self.admission.depth > 0 or self.pool.in_flight > 0:
            await asyncio.sleep(0)
            await self.pool.drain()

    def _preemptible(self, urgent: int) -> List[ServeRequest]:
        """Requests whose every dispatch group is queued, none started."""
        return self.pool.preempt(urgent) if self.pool.in_flight else []

    def _hand_off(self, group: List[ServeRequest]) -> None:
        live = [s for s in group if not s.failed]
        if not live:
            return
        try:
            if len(live) > 1:
                ops = self.tensorizer.lower_gemm_coalesced(
                    [s.request for s in live]
                )
                self.metrics.coalesce_groups += 1
                self.metrics.coalesced_requests += len(live)
            else:
                ops = [self.tensorizer.lower(live[0].request)]
        except Exception as exc:  # lowering bugs must not kill the loop
            if len(live) > 1:
                # One bad operand fails only its own request: lower each
                # member alone (bit-identical to its coalesced result).
                for sreq in live:
                    self._hand_off([sreq])
                return
            for sreq in live:
                if sreq.reject(ServingError(f"lowering failed: {exc}")):
                    self.metrics.failed += 1
            return
        for sreq, op in zip(live, ops):
            self._launch(sreq, op)

    def _launch(self, sreq: ServeRequest, op: Any) -> None:
        sreq.op = op
        groups = build_dispatch_groups(op.instrs, self.config.policy, tracer=self.tracer)
        if not groups:
            # Nothing to execute on-device (degenerate op): deliver now,
            # through the same once-only accounting path the dispatcher
            # uses (these two used to duplicate the latency arithmetic).
            self.metrics.record_delivery(sreq, self._clock())
            return
        plan = None
        if self.shard_planner is not None and len(groups) >= 2:
            sp = self.tracer.begin(
                "shard_plan",
                cat="shard",
                track="server",
                serve_id=sreq.serve_id,
                groups=len(groups),
            )
            result = op.result
            max_seconds = None
            if self.config.energy_aware and sreq.deadline is not None:
                slack = (sreq.deadline - self._clock()) * self.config.energy_headroom
                if slack > 0:
                    max_seconds = slack
            plan = self.shard_planner.plan(
                groups,
                result_rows=(
                    result.shape[0]
                    if getattr(result, "ndim", 0) == 2
                    else None
                ),
                devices=self.pool.available_devices(),
                max_seconds=max_seconds,
            )
            if plan is not None and plan.energy_preferred:
                self.metrics.energy_plans += 1
            self.tracer.end(sp.set(
                segments=len(plan.segments) if plan is not None else 0,
                profiled=plan.profiled if plan is not None else False,
                placement=plan.describe() if plan is not None else None,
            ))
        sreq.outstanding = len(groups)
        if plan is None:
            for dgroup in groups:
                self.pool.submit(DispatchWork(group=dgroup, sreq=sreq))
            return
        self.metrics.shard_plans += 1
        self.metrics.shard_segments += len(plan.segments)
        if plan.mergeable and np.issubdtype(op.result.dtype, np.floating):
            sreq.merge = MergeBuffer(op.result)
        for seg_index, seg in enumerate(plan.segments):
            for g in range(seg.start, seg.stop):
                self.pool.submit(DispatchWork(
                    group=groups[g],
                    sreq=sreq,
                    device_hint=seg.device,
                    segment=seg_index,
                    rows=(
                        plan.group_rows[g]
                        if sreq.merge is not None
                        else None
                    ),
                ))

    # -- reporting ------------------------------------------------------

    def counter_registry(self) -> CounterRegistry:
        """Unified counter snapshot: lowering + serving + device memory."""
        registry = CounterRegistry()
        registry.register("tensorizer", tensorizer_counters(self.tensorizer.stats))
        registry.register("serving", serving_counters(self.metrics))
        if self.plan_cache is not None:
            registry.register("plan", plan_counters(self.plan_cache))
        for device in self.platform.devices:
            registry.register(f"memory.{device.name}", memory_counters(device.memory))
            registry.register(f"device.{device.name}", device_counters(device))
        return registry

    def snapshot(self) -> dict:
        """Metrics snapshot including elapsed serving time."""
        elapsed = (
            self._clock() - self.started_at if self.started_at is not None else None
        )
        snap = self.metrics.snapshot(elapsed)
        snap["platform"] = {
            "tpus": self.platform.num_tpus,
            "healthy": sum(1 for d in self.platform.devices if d.healthy),
        }
        snap["breakers"] = {
            self.platform.devices[i].name: {
                "open": b.is_open,
                "opened": b.opened,
                # None while closed; the monotonic half-open instant
                # only exists while the breaker is actually open.
                "reopens_at": b.reopens_at,
            }
            for i, b in enumerate(self.pool.breakers)
        }
        if self.pool.quarantine is not None:
            snap["quarantine"] = self.pool.quarantine.snapshot(
                [d.name for d in self.platform.devices]
            )
        if self.plan_cache is not None:
            snap["plan_cache"] = self.plan_cache.counters()
        snap["sharding"]["enabled"] = self.shard_planner is not None
        snap["sharding"]["profile"] = self.shard_profile.snapshot()
        if self.overload is not None:
            snap["overload"] = self.overload.snapshot()
        return snap


def make_server(
    platform: Platform,
    config: ServeConfig,
    *,
    workers: int = 0,
    clock: Callable[[], float] = time.monotonic,
) -> FrontDoor:
    """The in-process server, or the multi-process one for *workers* > 0."""
    if not workers:
        return TpuServer(platform, config, clock=clock)
    from repro.mp import MpTpuServer  # repro.mp imports this module

    return MpTpuServer(platform, config, clock=clock, workers=workers)
