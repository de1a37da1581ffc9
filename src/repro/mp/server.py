"""Multi-process serving: asyncio admission tier + worker data planes.

:class:`MpTpuServer` is the same :class:`~repro.serve.server.FrontDoor`
as :class:`~repro.serve.server.TpuServer` — one submit → shed → admit →
expire → coalesce → preempt loop, one terminal path, one snapshot
assembly — while host lowering and simulated-device execution run in N
spawned worker processes, each owning a contiguous slice of the TPUs
(GPTPU's parallel host-side task dispatch, §6.1, without the GIL).
Only the two front door hooks are its own: a coalesced group is handed
off by routing it to the least loaded worker (ties go to the one that
last took that coalesce key) and staging it into that worker's ring,
parking it when the ring is full; and a preemption may take back only
parked groups (a worker reports the queued work it preempts, for the
parent to re-admit).  Everything else here is genuinely multi-process: worker
spawn and teardown, parking, crash requeue, plan gossip and merging
per-worker snapshot payloads.

Data path: operand and result tensors cross the boundary through
per-worker :class:`~repro.mp.shm.ShmRing` segments (zero-copy views);
pipes carry only offsets and control messages.  Compiled plans gossip
between workers as §3.3 byte blobs so every worker's
:class:`~repro.plan.PlanCache` warms from any worker's first lowering.

Crash contract: the parent owns every shared-memory segment and every
terminal outcome (a worker only reports each as a ``done``).  When a
worker dies (including SIGKILL), its pipe is drained to EOF, its
unresolved in-flight requests are requeued to surviving workers, its
segments are unlinked, and ``snapshot()`` keeps reporting its last
known device state — delivery stays exactly-once because only the
parent's once-only future resolve counts.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import multiprocessing as mp
import threading
import time
from collections import deque
from multiprocessing.connection import wait
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import DeviceFailure, WorkerStartError
from repro.host.platform import Platform
from repro.mp.messages import WorkerSpec, decode_error, encode_request
from repro.mp.shm import RingFull, ShmRing
from repro.mp.worker import worker_main
# ``coalesce`` is unused here (the shared loop in repro.serve.server
# calls it) but stays importable: benchmarks/e2e/layers.py wraps
# repro.mp.server.coalesce and repro.mp.server.encode_request.
from repro.serve.coalescer import coalesce, coalesce_key  # noqa: F401
from repro.serve.metrics import ServingMetrics
from repro.serve.request import ServeRequest
from repro.serve.server import FrontDoor, ServeConfig
from repro.telemetry import (
    SpanTracer,
    merge_chrome_traces,
    to_chrome_trace,
)

#: Per-worker shared-memory ring capacity (one request ring + one
#: result ring each).  16 MiB holds hundreds of in-flight 1k² float32
#: operands; RingFull just parks the shipment until a completion frees
#: space, so undersizing degrades to backpressure, never failure.
DEFAULT_RING_BYTES = 16 * 1024 * 1024

_SNAPSHOT_TIMEOUT = 30.0
_START_TIMEOUT = 120.0


@dataclasses.dataclass
class _Shipment:
    """One in-flight request shipped to a worker."""

    sreq: ServeRequest
    worker_id: int
    #: Request-ring offsets to free once the worker reports done.
    offsets: Tuple[int, ...]


class _Worker:
    """Parent-side handle for one spawned data-plane worker."""

    def __init__(self, wid: int, device_names: Tuple[str, ...]) -> None:
        self.wid = wid
        self.device_names = device_names
        self.process: Optional[mp.process.BaseProcess] = None
        self.inbox = None  # parent -> worker command pipe (send side)
        self.outbox = None  # worker -> parent event pipe (recv side)
        self.snapbox = None  # worker -> parent snapshot/trace pipe
        self.req_ring: Optional[ShmRing] = None
        self.res_ring: Optional[ShmRing] = None
        self.alive = False
        self.ready = asyncio.Event()
        self.pid: Optional[int] = None
        #: Coalesce groups parked on RingFull, re-shipped as space frees.
        self.pending: deque = deque()
        self.inflight = 0
        #: Serialized sends: the dispatch task and sync snapshot() may
        #: write the command pipe from different threads.
        self.lock = threading.Lock()
        #: Last snapshot payload received (survives a crash).
        self.last_payload: Optional[dict] = None

    def send(self, msg: tuple) -> bool:
        if not self.alive:
            return False
        try:
            with self.lock:
                self.inbox.send(msg)
            return True
        except (BrokenPipeError, OSError):
            return False


class MpTpuServer(FrontDoor):
    """Drop-in multi-process variant of :class:`TpuServer`."""

    def __init__(
        self,
        platform: Optional[Platform] = None,
        config: Optional[ServeConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[SpanTracer] = None,
        *,
        workers: int = 2,
        base_seed: int = 0,
        ring_bytes: int = DEFAULT_RING_BYTES,
    ) -> None:
        super().__init__(
            config, clock, tracer, ServingMetrics(base_seed=base_seed, worker_id=0)
        )
        self.platform = platform or Platform()
        n = self.platform.num_tpus
        if not 1 <= workers <= n:
            raise ValueError(
                f"workers must be in [1, num_tpus={n}], got {workers}"
            )
        self.num_workers = workers
        self.base_seed = base_seed
        self.ring_bytes = ring_bytes
        # The conformance campaigns arm ``server.pool.observer``: events
        # stream in from the workers (non-terminal) and the parent's
        # settle path (terminal), so the suites run unchanged here.
        self.pool = SimpleNamespace(observer=None)
        # Contiguous device slices; worker 0 owns tpu0, so single-request
        # behaviour (and the shard suite's tpu0 expectations) match the
        # in-process server.
        per, extra = divmod(n, workers)
        self._workers: List[_Worker] = []
        base = 0
        for wid in range(workers):
            count = per + (1 if wid < extra else 0)
            names = tuple(
                self.platform.devices[base + i].name for i in range(count)
            )
            self._workers.append(_Worker(wid, names))
            base += count
        #: coalesce key -> the worker that last took it: of equally
        #: loaded workers, a GEMM stream keeps hitting the one whose plan
        #: and model block are warm.
        self._routes: Dict[tuple, int] = {}
        self._inflight: Dict[int, _Shipment] = {}
        self._plan_blobs: Dict[str, bytes] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping = False
        self.worker_crashes = 0
        self.requeued = 0
        self._final_snapshot: Optional[dict] = None
        #: Resolved with the error when a worker dies during start().
        self._start_failed: Optional[asyncio.Future] = None
        #: Round-trip sequence numbers; workers echo them in replies.
        self._trip_seq = itertools.count()
        self.worker_traces: List[dict] = []

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Spawn the worker fleet and start the admission loop.

        Raises :class:`~repro.errors.WorkerStartError` as soon as a
        worker cannot be spawned or exits before it reports ready (or
        the fleet is not ready in time), after tearing down every worker
        and ring.
        """
        if self._loop_task is not None:
            return
        self._loop = asyncio.get_running_loop()
        self.started_at = self._clock()
        failed = self._start_failed = self._loop.create_future()
        ready = asyncio.ensure_future(
            asyncio.gather(*(w.ready.wait() for w in self._workers))
        )
        try:
            self._spawn_workers()
            await asyncio.wait(
                (ready, failed), timeout=_START_TIMEOUT,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if failed.done():
                failed.result()  # raises the worker's WorkerStartError
            if not ready.done():
                raise WorkerStartError(
                    f"worker fleet not ready within {_START_TIMEOUT:.0f} s"
                )
        except BaseException as exc:
            ready.cancel()
            await asyncio.gather(ready, return_exceptions=True)
            self._stopping = True
            await self._reap_workers(graceful=False)
            self._loop = None
            if isinstance(exc, Exception) and not isinstance(exc, WorkerStartError):
                raise WorkerStartError(f"worker fleet failed to start: {exc!r}") from exc
            raise
        finally:
            self._start_failed = None
        self._start_dispatch()

    def _spawn_workers(self) -> None:
        """Create each worker's rings and pipes and start its process."""
        ctx = mp.get_context("spawn")
        base = 0
        for worker in self._workers:
            count = len(worker.device_names)
            injectors = tuple(
                self.platform.devices[base + i].fault_injector
                for i in range(count)
            )
            base += count
            worker.req_ring = ShmRing.create(self.ring_bytes)
            worker.res_ring = ShmRing.create(self.ring_bytes)
            cmd_recv, cmd_send = ctx.Pipe(duplex=False)
            out_recv, out_send = ctx.Pipe(duplex=False)
            snap_recv, snap_send = ctx.Pipe(duplex=False)
            spec = WorkerSpec(
                worker_id=worker.wid,
                base_seed=self.base_seed,
                system_config=self.platform.config,
                device_names=worker.device_names,
                config=self.config,
                req_ring_name=worker.req_ring.shm.name,
                req_ring_capacity=self.ring_bytes,
                res_ring_name=worker.res_ring.shm.name,
                res_ring_capacity=self.ring_bytes,
                injectors=injectors,
                trace=self.tracer.enabled,
            )
            worker.process = ctx.Process(
                target=worker_main,
                args=(spec, cmd_recv, out_send, snap_send),
                daemon=True,
                name=f"repro-mp-worker{worker.wid}",
            )
            # The parent's ends belong to the worker from here on, so a
            # failed start tears them down with its rings.
            worker.inbox = cmd_send
            worker.outbox = out_recv
            worker.snapbox = snap_recv
            try:
                worker.process.start()
            finally:
                cmd_recv.close()
                out_send.close()
                snap_send.close()
            worker.alive = True
            self._loop.add_reader(
                worker.outbox.fileno(), self._drain_outbox, worker
            )
            self._loop.add_reader(
                worker.process.sentinel, self._on_worker_exit, worker
            )

    async def stop(self) -> None:
        """Drain snapshots, stop workers, reap processes, unlink rings."""
        if self._loop is None:
            return
        self._stopping = True
        await self._stop_dispatch()
        # Cache the final merged snapshot (and per-worker traces) while
        # the fleet can still answer, so post-stop snapshot() works.
        self._refresh_worker_payloads()
        if self.tracer.enabled:
            self._collect_traces()
        self._final_snapshot = self._merged_snapshot()
        await self._reap_workers(graceful=True)
        self._loop = None

    async def _reap_workers(self, graceful: bool) -> None:
        """Stop (or, not *graceful*, terminate) and join every worker
        process, then tear down its pipes and rings."""
        if graceful:
            for worker in self._workers:
                worker.send(("stop",))
        deadline = time.monotonic() + (10.0 if graceful else 0.0)
        for worker in self._workers:
            # A process whose start() failed (or never ran) has no pid.
            if worker.process is not None and worker.process.pid is not None:
                timeout = max(deadline - time.monotonic(), 0.1)
                await self._loop.run_in_executor(None, worker.process.join, timeout)
                if worker.process.exitcode is None:
                    worker.process.terminate()
                    await self._loop.run_in_executor(None, worker.process.join, 5.0)
            self._teardown_worker(worker)

    def _teardown_worker(self, worker: _Worker) -> None:
        """Remove readers, close pipes, unlink rings (idempotent)."""
        worker.alive = False
        if self._loop is not None:
            if worker.outbox is not None:
                try:
                    self._loop.remove_reader(worker.outbox.fileno())
                except (OSError, ValueError):
                    pass
            if worker.process is not None:
                try:
                    self._loop.remove_reader(worker.process.sentinel)
                except (OSError, ValueError):
                    pass
        for conn in (worker.inbox, worker.outbox, worker.snapbox):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        worker.inbox = worker.outbox = worker.snapbox = None
        for ring in (worker.req_ring, worker.res_ring):
            if ring is not None:
                ring.close()
                ring.unlink()
        worker.req_ring = worker.res_ring = None

    async def drain(self) -> None:
        """Wait until every admitted request has settled."""
        while self._live:
            self._wakeup.set()
            await asyncio.sleep(0.001)

    # -- routing / shipping ---------------------------------------------

    def _preemptible(self, urgent: int) -> List[ServeRequest]:
        """Detach parked lower-tier groups; shipped work is never taken.

        Only groups still parked on a worker's pending deque (never
        shipped, not yet lowered) qualify — anything already in a
        worker's ring may be executing.  Whole groups are un-coalesced,
        so exactly-once delivery is untouched: no work was in flight.
        """
        victims: List[ServeRequest] = []
        for worker in self._workers:
            keep: deque = deque()
            for group in worker.pending:
                live = [s for s in group if not s.failed]
                if live and all(s.priority > urgent for s in live):
                    victims.extend(live)
                else:
                    keep.append(group)
            worker.pending = keep
        return victims

    def _alive_workers(self) -> List[_Worker]:
        return [w for w in self._workers if w.alive]

    def _route(self, group: List[ServeRequest]) -> Optional[_Worker]:
        """Pick the least loaded worker for one group; of equally loaded
        workers, the one that last took this group's coalesce key.

        The key names shapes only, so being sticky to it regardless of
        load would pile every same-shape stream, whatever its B, onto
        one worker."""
        alive = self._alive_workers()
        if not alive:
            return None
        key = coalesce_key(group[0].request)
        last = self._routes.get(key) if key is not None else None
        pick = min(
            alive, key=lambda w: (w.inflight + len(w.pending), w.wid != last, w.wid)
        )
        if key is not None:
            self._routes[key] = pick.wid
        return pick

    def _hand_off(self, group: List[ServeRequest]) -> None:
        live = [s for s in group if not s.failed]
        if not live:
            return
        worker = self._route(live)
        if worker is None:
            for sreq in live:
                self._settle(sreq, DeviceFailure("no live data-plane workers remain"))
            return
        # Parked groups ship first: FIFO per worker.
        if worker.pending or not self._try_ship(worker, live):
            worker.pending.append(live)

    def _try_ship(self, worker: _Worker, group: List[ServeRequest]) -> bool:
        """Stage one group into the worker's request ring and send it.

        Returns False (after rolling back any partial staging) when the
        ring lacks space; the caller parks the group.
        """
        live = [s for s in group if not s.failed]
        if not live:
            return True
        now = self._clock()
        entries = []
        staged: List[Tuple[ServeRequest, Tuple[int, ...]]] = []
        try:
            for sreq in live:
                remaining = (
                    None if sreq.deadline is None else max(sreq.deadline - now, 0.0)
                )
                entry, offsets = encode_request(
                    worker.req_ring, sreq.serve_id, sreq.request, remaining
                )
                entries.append(entry)
                staged.append((sreq, tuple(offsets)))
            sent = worker.send(("req", entries))
        except RingFull:
            sent = False
        if not sent:
            for _sreq, offsets in staged:
                for offset in offsets:
                    worker.req_ring.free(offset)
            return False
        for sreq, offsets in staged:
            self._inflight[sreq.serve_id] = _Shipment(sreq, worker.wid, offsets)
            worker.inflight += 1
        return True

    def _flush_pending(self, worker: _Worker) -> None:
        while worker.pending and self._try_ship(worker, worker.pending[0]):
            worker.pending.popleft()

    # -- worker -> parent messages --------------------------------------

    def _drain_outbox(self, worker: _Worker) -> None:
        try:
            while worker.outbox is not None and worker.outbox.poll(0):
                self._handle_message(worker, worker.outbox.recv())
        except Exception:
            # Truncated pickle from a dying worker; the sentinel reader
            # performs the actual crash handling.
            pass

    def _handle_message(self, worker: _Worker, msg: tuple) -> None:
        kind = msg[0]
        if kind == "ready":
            worker.pid = msg[2]
            worker.ready.set()
        elif kind == "done":
            self._on_done(worker, msg)
        elif kind == "preempted":
            victims = []
            for gid in msg[1]:
                shipment = self._release(gid)
                if shipment is not None and not shipment.sreq.failed:
                    victims.append(shipment.sreq)
            self._readmit(victims)
            self._wakeup.set()
        elif kind == "event":
            _kind, event, gid, device = msg
            self._emit(event, gid, device)
        elif kind == "plans":
            self._gossip_plans(worker, msg[1])

    def _release(self, gid: int) -> Optional[_Shipment]:
        """Forget one shipment the worker is done with; free its blocks."""
        shipment = self._inflight.pop(gid, None)
        if shipment is not None:
            owner = self._workers[shipment.worker_id]
            owner.inflight = max(owner.inflight - 1, 0)
            if owner.req_ring is not None:
                for offset in shipment.offsets:
                    owner.req_ring.free(offset)
                self._flush_pending(owner)
        return shipment

    def _on_done(self, worker: _Worker, msg: tuple) -> None:
        _kind, gid, ok, ref, err, device = msg
        # None: a late duplicate after a crash requeue already re-shipped
        # (or resolved) this id; its result block is still recycled.
        shipment = self._release(gid)
        if ok:
            offset, _nbytes, shape, dtype = ref
            if shipment is not None:
                shipment.sreq.op = SimpleNamespace(result=np.array(
                    worker.res_ring.read_view(offset, shape, dtype), copy=True
                ))
            worker.send(("rfree", offset))
        if shipment is not None:
            self._settle(shipment.sreq, None if ok else decode_error(err), device)

    def _gossip_plans(self, origin: _Worker, plans: List[Tuple[str, bytes]]) -> None:
        fresh = [
            (sig, blob) for sig, blob in plans if sig not in self._plan_blobs
        ]
        if not fresh:
            return
        for sig, blob in fresh:
            self._plan_blobs[sig] = blob
        blobs = [blob for _sig, blob in fresh]
        for worker in self._alive_workers():
            if worker.wid != origin.wid:
                worker.send(("warm", blobs))

    # -- crash recovery -------------------------------------------------

    def _on_worker_exit(self, worker: _Worker) -> None:
        if self._loop is not None and worker.process is not None:
            try:
                self._loop.remove_reader(worker.process.sentinel)
            except (OSError, ValueError):
                pass
        if self._stopping or not worker.alive:
            return
        if not worker.ready.is_set():
            # Died before reporting ready: start() fails (and tears the
            # whole fleet down) instead of waiting out its timeout.
            if self._start_failed is not None and not self._start_failed.done():
                self._start_failed.set_exception(WorkerStartError(
                    f"worker {worker.wid} exited before it was ready"
                ))
            return
        # Consume everything the worker managed to send before dying —
        # a request it completed (and reported) must not be re-executed.
        self._drain_outbox(worker)
        self.worker_crashes += 1
        orphans = [s.sreq for s in self._inflight.values() if s.worker_id == worker.wid]
        for sreq in orphans:
            del self._inflight[sreq.serve_id]
        parked, worker.pending = worker.pending, deque()
        worker.inflight = 0
        self._teardown_worker(worker)
        for sreq in orphans:
            if not sreq.failed and not sreq.future.done():
                self.requeued += 1
                self._emit("retry", sreq.serve_id)
                self._hand_off([sreq])
        for group in parked:
            self._hand_off(group)

    # -- snapshots / traces ---------------------------------------------

    def _round_trip(self, worker: _Worker, kind: str) -> Optional[Any]:
        """Synchronously ask one worker for a reply of *kind*.

        On the event-loop thread the loop's own reader cannot run while
        this blocks, so the worker's event pipe is read here too, through
        the same handler: a worker blocked sending plan gossip into a
        full event pipe would otherwise never read the request.  Each
        request carries a fresh sequence number that the worker echoes;
        a reply with another number is a late answer to a round trip
        that already gave up, and is dropped.
        """
        seq = next(self._trip_seq)
        if not worker.send((kind, seq)):
            return None
        try:
            on_loop = asyncio.get_running_loop() is self._loop
        except RuntimeError:
            on_loop = False
        deadline = time.monotonic() + _SNAPSHOT_TIMEOUT
        while time.monotonic() < deadline:
            try:
                pipes = [worker.snapbox, worker.outbox] if on_loop else [worker.snapbox]
                ready = wait(pipes, 0.05)
                if worker.outbox in ready:
                    self._drain_outbox(worker)
                if worker.snapbox not in ready:
                    continue
                msg = worker.snapbox.recv()
            except (EOFError, OSError):
                return None
            if msg[0] == kind and msg[3] == seq:
                return msg[2]
        return None

    def _refresh_worker_payloads(self) -> None:
        for worker in self._alive_workers():
            payload = self._round_trip(worker, "snapshot")
            if payload is not None:
                worker.last_payload = payload

    def _collect_traces(self) -> None:
        self.worker_traces = []
        for worker in self._alive_workers():
            trace = self._round_trip(worker, "trace")
            if trace is not None:
                self.worker_traces.append(trace)

    def chrome_trace(self, counters: Optional[dict] = None) -> dict:
        """Merged pid-tagged Chrome trace: parent lane + one per worker."""
        import os

        parent = to_chrome_trace(
            self.tracer,
            counters,
            pid=os.getpid(),
            process_name="repro-mp-parent",
        )
        return merge_chrome_traces([parent] + self.worker_traces)

    def snapshot(self) -> dict:
        """Merged metrics snapshot in the TpuServer schema (+ workers)."""
        if self._loop is None and self._final_snapshot is not None:
            return self._final_snapshot
        self._refresh_worker_payloads()
        return self._merged_snapshot()

    def _merged_snapshot(self) -> dict:
        payloads = [w.last_payload for w in self._workers if w.last_payload]
        # Workers never settle a request, so their metrics hold only
        # data-plane counters and fold in without double counting.
        merged = ServingMetrics(base_seed=self.base_seed, worker_id=0)
        for state in [self.metrics.export_state()] + [p["metrics"] for p in payloads]:
            merged.merge_state(state)
        snap = self._assemble_snapshot(merged, [p["plane"] for p in payloads])
        snap["workers"] = {
            "count": self.num_workers,
            "alive": len(self._alive_workers()),
            "crashes": self.worker_crashes,
            "requeued": self.requeued,
            "pids": {
                w.wid: (w.last_payload or {}).get("pid", w.pid)
                for w in self._workers
            },
            "host_seconds": {
                w.wid: w.last_payload["host_seconds"]
                for w in self._workers
                if w.last_payload
            },
            "devices": {w.wid: list(w.device_names) for w in self._workers},
        }
        return snap
