"""The data-plane worker process.

Each worker owns one :class:`~repro.serve.server.DataPlane` over its own
slice of the platform's simulated TPUs (devices renamed to their
*global* identities, so breakers, quarantine, and shard profiles merge
back into parent snapshots without translation).  Host lowering, the
plan cache, the ABFT/vote integrity layer, intra-worker sharding, and
quarantine/breaker handling all run here, on a core of their own — the
escape hatch from the parent's GIL.

The worker runs no front door.  Each inbox pass builds the shipped
requests under their parent serve ids, detaches queued lower-tier work
when SLO preemption is armed (reporting it for the parent to re-admit),
runs one ``coalesce()`` over the pass and hands the groups to the
plane.  Every outcome goes back as one ``done`` (protocol:
:mod:`repro.mp.messages`) and only the parent settles it, which is what
makes a crash requeue of this worker's requests safe.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ModelSizeMismatchError, PlanFormatError
from repro.host.platform import Platform
from repro.mp.messages import WorkerSpec, decode_request, encode_error
from repro.mp.shm import RingFull, ShmRing
from repro.plan import parse_plan, serialize_plan
from repro.serve.coalescer import coalesce
from repro.serve.metrics import ServingMetrics
from repro.serve.request import ServeRequest
from repro.serve.server import DataPlane, stamp_request
from repro.telemetry import SpanTracer, to_chrome_trace


class _WorkerState:
    """The worker's data plane plus its side of the pipes and rings."""

    def __init__(self, spec: WorkerSpec, outbox, req_ring, res_ring) -> None:
        self.spec = spec
        self.outbox = outbox
        self.req_ring = req_ring
        self.res_ring = res_ring
        n_local = len(spec.device_names)
        platform = Platform(spec.system_config.with_tpus(n_local), trace=False)
        for device, name, injector in zip(
            platform.devices, spec.device_names, spec.injectors or (None,) * n_local
        ):
            device.name = name  # global identity: snapshots merge key-for-key
            if injector is not None:
                device.fault_injector = injector
        #: Global index of each local device.
        self.devices = [int(name[3:]) for name in spec.device_names]
        self.tracer = SpanTracer(enabled=spec.trace)
        self.metrics = ServingMetrics(
            base_seed=spec.base_seed, worker_id=spec.worker_id + 1
        )
        self.plane = DataPlane(
            platform, spec.config, time.monotonic, self.tracer, self.metrics, self.settle
        )
        self.plane.pool.observer = lambda event, gid, device: self.send(
            ("event", event, gid, self.global_device(device))
        )
        #: Requests held here, by parent serve id; an outcome is reported
        #: only for an id still present (once-only, like a future).
        self.live: Dict[int, ServeRequest] = {}
        #: (serve id, result, device) waiting for result-ring space.
        self.parked: deque = deque()
        #: plan signatures already shipped to the parent.
        self.shipped_plans: set = set()

    def send(self, msg: tuple) -> None:
        try:
            self.outbox.send(msg)
        except (BrokenPipeError, OSError):
            pass  # parent is gone; the daemon flag reaps us shortly

    def global_device(self, local_index: int) -> int:
        return self.devices[local_index] if local_index >= 0 else -1

    def run(self, entries: List[dict]) -> None:
        """Build one inbox pass's requests and hand them to the plane."""
        batch = []
        now = time.monotonic()
        slo = self.spec.config.slo
        for entry in entries:
            gid = entry["serve_id"]
            try:
                request = decode_request(self.req_ring, entry)
            except Exception as exc:  # still a done, or the parent waits
                self.send(("done", gid, False, None, encode_error(exc), -1))
                continue
            self.live[gid] = stamp_request(
                slo, gid, request, now, entry["deadline"], None
            )
            batch.append(self.live[gid])
        if batch and slo is not None and slo.preempt and self.plane.pool.in_flight:
            victims = self.plane.pool.preempt(min(s.priority for s in batch))
            for sreq in victims:
                del self.live[sreq.serve_id]
            if victims:
                self.send(("preempted", [s.serve_id for s in victims]))
        for group in coalesce(batch, self.spec.config.max_coalesce):
            self.plane.hand_off(group)

    def settle(
        self, sreq: ServeRequest, exc: Optional[BaseException], device: int
    ) -> None:
        """The plane's terminal callback: report the outcome to the parent."""
        if self.live.pop(sreq.serve_id, None) is not sreq:
            return
        device = self.global_device(device)
        if exc is not None:
            sreq.failed = True  # sibling groups still queued are dropped
            self.send(("done", sreq.serve_id, False, None, encode_error(exc), device))
        else:
            self.parked.append((sreq.serve_id, np.asarray(sreq.op.result), device))
            self.flush_parked()
        self.ship_new_plans()

    def flush_parked(self) -> None:
        while self.parked:
            gid, result, device = self.parked[0]
            try:
                ref = self.res_ring.write_array(result)
            except RingFull:
                return
            self.parked.popleft()
            self.send(("done", gid, True, ref, None, device))

    def ship_new_plans(self) -> None:
        """Gossip freshly captured plans to the parent (§3.3 bytes)."""
        cache = self.plane.plan_cache
        if cache is None:
            return
        fresh = []
        for plan in cache.plans():
            if plan.signature not in self.shipped_plans:
                self.shipped_plans.add(plan.signature)
                try:
                    fresh.append((plan.signature, serialize_plan(plan)))
                except PlanFormatError:
                    pass  # non-serializable plan shapes stay worker-local
        if fresh:
            self.send(("plans", fresh))

    def warm_plans(self, blobs: List[bytes]) -> None:
        cache = self.plane.plan_cache
        if cache is None:
            return
        for blob in blobs:
            try:
                plan = parse_plan(blob)
            except (PlanFormatError, ModelSizeMismatchError):
                continue
            self.shipped_plans.add(plan.signature)
            if cache.peek(plan.signature) is None:
                cache.put(plan.signature, plan)


async def _amain(spec: WorkerSpec, inbox, outbox, snapbox) -> None:
    host_t0 = time.process_time()
    wall_t0 = time.monotonic()
    req_ring = ShmRing.attach(spec.req_ring_name, spec.req_ring_capacity)
    res_ring = ShmRing.attach(spec.res_ring_name, spec.res_ring_capacity)
    state = _WorkerState(spec, outbox, req_ring, res_ring)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()

    def handle_inbox() -> None:
        entries: List[dict] = []
        try:
            while inbox.poll(0):
                msg = inbox.recv()
                kind = msg[0]
                if kind == "req":
                    entries.extend(msg[1])
                elif kind == "rfree":
                    res_ring.free(msg[1])
                    state.flush_parked()
                elif kind == "warm":
                    state.warm_plans(msg[1])
                elif kind == "snapshot":
                    # Replies echo the request's sequence number.
                    snapbox.send(("snapshot", spec.worker_id, {
                        "pid": os.getpid(),
                        "worker_id": spec.worker_id,
                        "host_seconds": time.process_time() - host_t0,
                        "wall_seconds": time.monotonic() - wall_t0,
                        "metrics": state.metrics.export_state(),
                        "plane": state.plane.payload(),
                    }, msg[1]))
                elif kind == "trace":
                    snapbox.send(("trace", spec.worker_id, to_chrome_trace(
                        state.tracer,
                        pid=os.getpid(),
                        process_name=f"repro-worker{spec.worker_id}",
                        time_origin=wall_t0,
                    ), msg[1]))
                elif kind == "stop":
                    stop.set()
        except (EOFError, OSError):
            stop.set()  # parent went away
        state.run(entries)

    loop.add_reader(inbox.fileno(), handle_inbox)
    state.plane.pool.start()
    outbox.send(("ready", spec.worker_id, os.getpid()))
    await stop.wait()
    loop.remove_reader(inbox.fileno())
    await state.plane.pool.stop()
    req_ring.close()
    res_ring.close()


def worker_main(spec: WorkerSpec, inbox, outbox, snapbox) -> None:
    """Spawn entry point: run one data-plane worker to completion."""
    try:
        asyncio.run(_amain(spec, inbox, outbox, snapbox))
    except KeyboardInterrupt:
        pass
    finally:
        for conn in (inbox, outbox, snapbox):
            try:
                conn.close()
            except OSError:
                pass
