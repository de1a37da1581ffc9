"""Serving observability: latencies, queue depth, devices, retries.

One :class:`ServingMetrics` instance per server.  Counters are plain
ints/floats updated from the single event loop thread; ``snapshot()``
returns a JSON-friendly dict (the payload of ``BENCH_serving.json`` and
the ``repro serve`` report table).
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import defaultdict
from typing import Dict, Optional

from repro.metrics import LatencySummary, ReservoirSample

#: Bound on retained latency / queue-depth samples.  Below this the
#: sample is exact; past it, reservoir sampling keeps percentiles honest
#: while a sustained run's memory stays O(1).
SAMPLE_RESERVOIR_CAPACITY = 8192


def reservoir_seed(base_seed: int, worker_id: int, stream: str) -> int:
    """Distinct, stable reservoir seed per (base_seed, worker, stream).

    Multi-process serving gives every worker its own metrics instance;
    if each used the same hardcoded seed, the reservoirs would make
    identical keep/evict decisions on identical streams and the merged
    percentiles would be skewed toward correlated samples.
    """
    digest = hashlib.blake2b(
        f"{base_seed}:{worker_id}:{stream}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class ServingMetrics:
    """Lifetime counters and distributions for one serving session.

    ``base_seed`` / ``worker_id`` decorrelate the sampling reservoirs
    across the processes of a multi-process server; worker instances are
    folded back into the parent's with :meth:`merge_state`.
    """

    def __init__(self, base_seed: int = 0, worker_id: int = 0) -> None:
        self.base_seed = base_seed
        self.worker_id = worker_id
        self.submitted = 0
        self.rejected = 0  # QueueFull fast-rejects (capacity)
        self.shed = 0  # LoadShed rejects (overload policy)
        self.timeouts = 0  # RequestTimeout rejections
        self.completed = 0  # futures resolved with a result
        self.failed = 0  # futures rejected with DeviceFailure
        #: Preemptions: not-yet-dispatched requests pulled back into the
        #: admission queue to make room for a higher-priority batch.
        self.preemptions = 0
        #: Shard placements where the energy-aware planner chose a
        #: cheaper-energy candidate over the minimum-makespan one.
        self.energy_plans = 0
        #: Per-SLO-tier accounting (keys are tier names; empty when the
        #: server runs without an SLO policy).
        self.submitted_by_tier: Dict[str, int] = defaultdict(int)
        self.completed_by_tier: Dict[str, int] = defaultdict(int)
        self.shed_by_tier: Dict[str, int] = defaultdict(int)
        #: Deadline misses (admission expiry or in-flight timeout).
        self.miss_by_tier: Dict[str, int] = defaultdict(int)
        #: Modeled device busy seconds attributed to each tier.
        self.busy_by_tier: Dict[str, float] = defaultdict(float)
        #: Per-tier end-to-end latency reservoirs (lazily created).
        self.latency_by_tier: Dict[str, ReservoirSample] = {}
        #: Per-request end-to-end latencies (seconds, completed only).
        self.latencies = ReservoirSample(
            SAMPLE_RESERVOIR_CAPACITY,
            seed=reservoir_seed(base_seed, worker_id, "latency"),
        )
        #: Admission-queue depth sampled at each dispatch-loop drain.
        self.queue_depth_samples = ReservoirSample(
            SAMPLE_RESERVOIR_CAPACITY,
            seed=reservoir_seed(base_seed, worker_id, "queue-depth"),
        )
        #: Dispatch-group retries after a device failure.
        self.retries = 0
        #: Device failures observed (fault hook firings seen by workers).
        self.device_failures = 0
        #: Requests that shared a coalesced lowering (group size >= 2).
        self.coalesced_requests = 0
        #: Coalesced lowerings performed.
        self.coalesce_groups = 0
        #: Dispatch groups executed to completion, per device name.
        self.groups_by_device: Dict[str, int] = defaultdict(int)
        #: Modeled matrix-unit busy seconds, per device name.
        self.busy_by_device: Dict[str, float] = defaultdict(float)
        #: Failures, per device name.
        self.failures_by_device: Dict[str, int] = defaultdict(int)
        #: Bytes moved host<->device (after residency hits).
        self.bytes_in = 0
        self.bytes_out = 0
        #: Integrity layer (repro.integrity): tiles transmitted through
        #: the verifier, detected-corrupt tiles, group-level incidents,
        #: groups delivered clean after at least one SDC retry
        #: (corrections), quarantine entries, and vote disagreements
        #: adjudicated against the witness.
        self.tiles_verified = 0
        self.sdc_detected = 0
        self.sdc_incidents = 0
        self.sdc_corrected = 0
        self.quarantines = 0
        self.vote_adjudications = 0
        #: SDC incidents per device name.
        self.sdc_by_device: Dict[str, int] = defaultdict(int)
        #: Sharding layer (repro.shard): requests placed by the
        #: segmentation planner, per-device segments those plans
        #: produced, segments re-routed off an unavailable hinted
        #: device (migrations), and sharded results reassembled through
        #: the row-merge buffer.
        self.shard_plans = 0
        self.shard_segments = 0
        self.shard_migrations = 0
        self.shard_merged = 0

    # -- recording ------------------------------------------------------

    def _tier_reservoir(self, tier: str) -> ReservoirSample:
        reservoir = self.latency_by_tier.get(tier)
        if reservoir is None:
            reservoir = ReservoirSample(
                SAMPLE_RESERVOIR_CAPACITY,
                seed=reservoir_seed(
                    self.base_seed, self.worker_id, f"latency.{tier}"
                ),
            )
            self.latency_by_tier[tier] = reservoir
        return reservoir

    def record_completion(self, latency_seconds: float, tier: str = "") -> None:
        """One request delivered; account its end-to-end latency."""
        self.completed += 1
        self.latencies.add(latency_seconds)
        if tier:
            self.completed_by_tier[tier] += 1
            self._tier_reservoir(tier).add(latency_seconds)

    def record_delivery(self, sreq, now: float) -> bool:
        """Resolve *sreq* and account its latency (the front door's
        settle path is the only caller).  True when this call won the
        once-only resolve."""
        if not sreq.resolve():
            return False
        self.record_completion(now - sreq.submitted, tier=sreq.tier)
        return True

    def record_timeout(self, sreq) -> None:
        """One deadline miss (queue expiry or pre-dispatch timeout)."""
        self.timeouts += 1
        if sreq.tier:
            self.miss_by_tier[sreq.tier] += 1

    def record_shed(self, tier: str) -> None:
        """One request shed by overload policy at admission."""
        self.shed += 1
        if tier:
            self.shed_by_tier[tier] += 1

    def record_group(
        self,
        device: str,
        exec_seconds: float,
        bytes_in: int,
        bytes_out: int,
        tier: str = "",
    ) -> None:
        """One dispatch group retired on *device*."""
        self.groups_by_device[device] += 1
        self.busy_by_device[device] += exec_seconds
        self.bytes_in += bytes_in
        self.bytes_out += bytes_out
        if tier:
            self.busy_by_tier[tier] += exec_seconds

    def record_device_failure(self, device: str) -> None:
        """One fault-hook firing on *device*."""
        self.device_failures += 1
        self.failures_by_device[device] += 1

    def record_sdc(self, device: str, tiles: int) -> None:
        """One silent-data-corruption incident (*tiles* bad) on *device*."""
        self.sdc_incidents += 1
        self.sdc_detected += tiles
        self.sdc_by_device[device] += 1

    def sample_queue_depth(self, depth: int) -> None:
        """Record the admission-queue depth at a dispatch-loop drain."""
        self.queue_depth_samples.add(depth)

    # -- cross-process merge --------------------------------------------

    _SCALARS = (
        "submitted", "rejected", "shed", "timeouts", "completed", "failed",
        "preemptions", "energy_plans",
        "retries", "device_failures", "coalesced_requests",
        "coalesce_groups", "bytes_in", "bytes_out", "tiles_verified",
        "sdc_detected", "sdc_incidents", "sdc_corrected", "quarantines",
        "vote_adjudications", "shard_plans", "shard_segments",
        "shard_migrations", "shard_merged",
    )
    _DEVICE_MAPS = (
        "groups_by_device", "busy_by_device", "failures_by_device",
        "sdc_by_device",
    )
    _TIER_MAPS = (
        "submitted_by_tier", "completed_by_tier", "shed_by_tier",
        "miss_by_tier", "busy_by_tier",
    )

    def export_state(self) -> dict:
        """Picklable state for shipping across a process boundary."""
        state: dict = {name: getattr(self, name) for name in self._SCALARS}
        for name in self._DEVICE_MAPS + self._TIER_MAPS:
            state[name] = dict(getattr(self, name))
        state["latencies"] = self.latencies.export_state()
        state["queue_depth_samples"] = self.queue_depth_samples.export_state()
        state["latency_by_tier"] = {
            tier: res.export_state() for tier, res in self.latency_by_tier.items()
        }
        return state

    def merge_state(self, state: dict) -> None:
        """Fold a worker's :meth:`export_state` into this instance.

        Scalar counters, per-device counters, and the reservoirs' exact
        count/total/max add precisely; only the *retained* percentile
        samples are subsampled when the union exceeds capacity (see
        :meth:`ReservoirSample.merge_state`).
        """
        for name in self._SCALARS:
            setattr(self, name, getattr(self, name) + state.get(name, 0))
        for name in self._DEVICE_MAPS + self._TIER_MAPS:
            target = getattr(self, name)
            for key, value in state.get(name, {}).items():
                target[key] += value
        self.latencies.merge_state(state["latencies"])
        self.queue_depth_samples.merge_state(state["queue_depth_samples"])
        for tier, res_state in state.get("latency_by_tier", {}).items():
            self._tier_reservoir(tier).merge_state(res_state)

    # -- reporting ------------------------------------------------------

    @property
    def delivered(self) -> int:
        """Requests whose future settled (result or error)."""
        return self.completed + self.failed + self.timeouts

    @property
    def lost(self) -> int:
        """Admitted requests unaccounted for — must be 0 after a drain."""
        return self.submitted - self.rejected - self.shed - self.delivered

    def latency_summary(self) -> Optional[LatencySummary]:
        """p50/p90/p99 summary, or None before the first completion.

        Percentiles come from the retained reservoir (exact below
        capacity); count, mean, and max come from the exact running
        aggregates, so they never degrade past the bound.
        """
        if not self.latencies:
            return None
        summary = LatencySummary.from_samples(self.latencies.values())
        return dataclasses.replace(
            summary,
            count=self.latencies.count,
            mean=self.latencies.mean,
            max=self.latencies.max_value,
        )

    def tier_summary(self, tier: str) -> Optional[LatencySummary]:
        """Latency summary for one tier, or None before a completion."""
        reservoir = self.latency_by_tier.get(tier)
        if not reservoir:
            return None
        summary = LatencySummary.from_samples(reservoir.values())
        return dataclasses.replace(
            summary,
            count=reservoir.count,
            mean=reservoir.mean,
            max=reservoir.max_value,
        )

    def counters(self) -> Dict[str, float]:
        """Flat scalar counters for the telemetry CounterRegistry."""
        out = {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "completed": self.completed,
            "failed": self.failed,
            "preemptions": self.preemptions,
            "energy_plans": self.energy_plans,
            "lost": self.lost,
            "retries": self.retries,
            "device_failures": self.device_failures,
            "coalesce_groups": self.coalesce_groups,
            "coalesced_requests": self.coalesced_requests,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "tiles_verified": self.tiles_verified,
            "sdc_detected": self.sdc_detected,
            "sdc_incidents": self.sdc_incidents,
            "sdc_corrected": self.sdc_corrected,
            "quarantines": self.quarantines,
            "vote_adjudications": self.vote_adjudications,
            "shard_plans": self.shard_plans,
            "shard_segments": self.shard_segments,
            "shard_migrations": self.shard_migrations,
            "shard_merged": self.shard_merged,
        }
        for tier in sorted(self.shed_by_tier):
            out[f"shed.{tier}"] = self.shed_by_tier[tier]
        for tier in sorted(self.miss_by_tier):
            out[f"deadline_miss.{tier}"] = self.miss_by_tier[tier]
        for tier in sorted(self.completed_by_tier):
            out[f"completed.{tier}"] = self.completed_by_tier[tier]
        return out

    def snapshot(self, elapsed_seconds: Optional[float] = None) -> dict:
        """JSON-friendly state dump (stable keys; see docs/serving.md)."""
        latency = self.latency_summary()
        devices = {}
        for name in sorted(
            set(self.groups_by_device) | set(self.busy_by_device) | set(self.failures_by_device)
        ):
            busy = self.busy_by_device.get(name, 0.0)
            entry = {
                "groups": self.groups_by_device.get(name, 0),
                "busy_seconds": busy,
                "failures": self.failures_by_device.get(name, 0),
                "sdc_incidents": self.sdc_by_device.get(name, 0),
            }
            if elapsed_seconds:
                entry["utilization"] = busy / elapsed_seconds
            devices[name] = entry
        tiers = {}
        for tier in sorted(
            set(self.submitted_by_tier)
            | set(self.completed_by_tier)
            | set(self.shed_by_tier)
            | set(self.miss_by_tier)
            | set(self.busy_by_tier)
        ):
            summary = self.tier_summary(tier)
            tiers[tier] = {
                "submitted": self.submitted_by_tier.get(tier, 0),
                "completed": self.completed_by_tier.get(tier, 0),
                "shed": self.shed_by_tier.get(tier, 0),
                "deadline_misses": self.miss_by_tier.get(tier, 0),
                "busy_seconds": self.busy_by_tier.get(tier, 0.0),
                "latency": summary.as_dict() if summary is not None else None,
            }
        depth = self.queue_depth_samples
        return {
            "outcomes": {
                "submitted": self.submitted,
                "rejected": self.rejected,
                "shed": self.shed,
                "timeouts": self.timeouts,
                "completed": self.completed,
                "failed": self.failed,
                "lost": self.lost,
            },
            "tiers": tiers,
            "latency": latency.as_dict() if latency is not None else None,
            "queue_depth": {
                "samples": depth.count,
                "max": int(depth.max_value) if depth else 0,
                "mean": depth.mean,
            },
            "retries": self.retries,
            "preemptions": self.preemptions,
            "device_failures": self.device_failures,
            "coalescing": {
                "groups": self.coalesce_groups,
                "requests_coalesced": self.coalesced_requests,
            },
            "devices": devices,
            "bytes": {"in": self.bytes_in, "out": self.bytes_out},
            "integrity": {
                "tiles_verified": self.tiles_verified,
                "sdc_detected": self.sdc_detected,
                "sdc_incidents": self.sdc_incidents,
                "sdc_corrected": self.sdc_corrected,
                "quarantines": self.quarantines,
                "vote_adjudications": self.vote_adjudications,
            },
            "sharding": {
                "plans": self.shard_plans,
                "segments": self.shard_segments,
                "migrations": self.shard_migrations,
                "merged": self.shard_merged,
                "energy_plans": self.energy_plans,
            },
            "elapsed_seconds": elapsed_seconds,
        }
