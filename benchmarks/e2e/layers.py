"""Layer boundaries the traced run times, and the span recorder.

Every call the traced run wraps is listed once, in :data:`PATCH_POINTS`.
The wrappers are installed from the benchmark process around the
*public* entry points of each ``src/repro`` layer; nothing inside the
program is edited or hooked.  Module-level functions are patched where
they are bound (``coalesce`` is imported by name into both serving
stacks, so each binding is its own patch point).

Code moves between modules over time.  A patch point whose module or
attribute no longer exists is reported under ``missing_patch_points``
instead of raising, so the benchmark keeps running after a refactor and
the gap is visible in the results file.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np


def _arg_sid(index: int) -> Callable:
    return lambda args: getattr(args[index], "serve_id", None)


def _task_sid(args) -> Optional[int]:
    return getattr(args[1], "task_id", None)


def _work_sid(args) -> Optional[int]:
    return args[1].sreq.serve_id


@dataclass(frozen=True)
class PatchPoint:
    """One wrapped callable."""

    #: The ``src/repro`` layer the call enters.
    layer: str
    #: Module the name is looked up (and patched) in.
    module: str
    #: ``"Class.method"`` or a module-level ``"name"``.
    attr: str
    #: Span name recorded for each call.
    span: str
    #: ``(args) -> serve id`` for calls made on behalf of one request.
    serve_id: Optional[Callable] = None
    #: ``(args, result) -> payload`` kept on the span for the metrics.
    note: Optional[Callable] = None


PATCH_POINTS: Tuple[PatchPoint, ...] = (
    PatchPoint("serve.admission", "repro.serve.admission",
               "AdmissionController.offer", "admission.offer", _arg_sid(1)),
    PatchPoint("serve.admission", "repro.serve.admission",
               "AdmissionController.drain", "admission.drain",
               note=lambda a, r: (tuple(s.serve_id for s in r), a[0].depth + len(r))),
    PatchPoint("serve.admission", "repro.serve.admission",
               "AdmissionController.expire", "admission.expire"),
    PatchPoint("serve.admission", "repro.serve.admission",
               "AdmissionController.requeue", "admission.requeue", _arg_sid(1)),
    PatchPoint("serve.slo", "repro.serve.slo",
               "OverloadController.should_shed", "slo.should_shed",
               note=lambda a, r: bool(r)),
    PatchPoint("serve.slo", "repro.serve.slo",
               "OverloadController.observe", "slo.observe", note=lambda a, r: r),
    PatchPoint("serve.coalescer", "repro.serve.server", "coalesce", "coalesce",
               note=lambda a, r: (len(a[0]), tuple(len(g) for g in r))),
    PatchPoint("serve.coalescer", "repro.mp.server", "coalesce", "coalesce",
               note=lambda a, r: (len(a[0]), tuple(len(g) for g in r))),
    PatchPoint("runtime.tensorizer", "repro.runtime.tensorizer",
               "Tensorizer.lower", "lower", _task_sid,
               note=lambda a, r: a[1].opcode.opname),
    PatchPoint("runtime.tensorizer", "repro.runtime.tensorizer",
               "Tensorizer.lower_gemm_coalesced", "lower.coalesced",
               note=lambda a, r: tuple(q.task_id for q in a[1])),
    PatchPoint("plan", "repro.plan.cache", "PlanCache.get", "plan.get",
               note=lambda a, r: r is not None),
    PatchPoint("plan", "repro.plan.cache", "PlanCache.put", "plan.put"),
    PatchPoint("runtime.scheduler", "repro.serve.server",
               "build_dispatch_groups", "schedule.build_groups",
               note=lambda a, r: len(r)),
    PatchPoint("runtime.scheduler", "repro.runtime.executor",
               "build_dispatch_groups", "schedule.build_groups",
               note=lambda a, r: len(r)),
    PatchPoint("serve.dispatcher", "repro.serve.dispatcher",
               "DevicePool.submit", "pool.submit", _work_sid,
               note=lambda a, r: id(a[1].group)),
    PatchPoint("runtime.executor", "repro.serve.dispatcher",
               "group_service_seconds", "service",
               note=lambda a, r: (id(a[0]), r.service_seconds)),
    PatchPoint("integrity", "repro.integrity.verifier",
               "IntegrityVerifier.verify_op", "verify", note=lambda a, r: r.checked),
    PatchPoint("serve.metrics", "repro.serve.metrics",
               "ServingMetrics.record_delivery", "metrics.record_delivery",
               _arg_sid(1)),
    PatchPoint("runtime.api", "repro.runtime.api",
               "OpenCtpu.invoke_operator", "api.invoke_operator"),
    PatchPoint("runtime.executor", "repro.runtime.api", "OpenCtpu.sync",
               "executor.sync",
               note=lambda a, r: (r.timeline.tpu_busy_seconds(), r.timeline.makespan,
                                  r.timeline.bytes_transferred)),
    PatchPoint("nn", "repro.nn.models", "Sequential.forward", "nn.forward"),
    PatchPoint("mp", "repro.mp.server", "encode_request", "mp.encode",
               lambda a: a[1]),
)


#: One recorded call: (name, layer, start, end, parent index or -1,
#: serve id or None, note payload, exception type name or None).
Span = Tuple[str, str, float, float, int, Optional[int], Any, Optional[str]]
#: Spans written to a Chrome trace; the metrics use all of them.
MAX_TRACE_EVENTS = 100_000


def _resolve(point: PatchPoint) -> Tuple[Any, str, Any]:
    """(owner, attribute name, original) for one patch point."""
    owner: Any = importlib.import_module(point.module)
    *path, name = point.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, original


class Recorder:
    """Installs the wrappers and keeps every span in memory.

    All wrapped callables are synchronous and the serving stacks run on
    one event-loop thread, so a plain stack gives each span its parent.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    def install(self) -> "Recorder":
        for point in PATCH_POINTS:
            try:
                owner, name, original = _resolve(point)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{point.module}:{point.attr}")
                continue
            setattr(owner, name, self._wrap(point, original))
            self._installed.append((owner, name, original))
        return self

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def _wrap(self, point: PatchPoint, original: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        name, layer = point.span, point.layer
        sid_of, note_of = point.serve_id, point.note

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            error = None
            result = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                note = note_of(args, result) if note_of is not None and error is None else None
                sid = sid_of(args) if sid_of is not None else None
                spans[index] = (name, layer, start, end, parent, sid, note, error)

        return wrapper

    def mark(self, name: str, layer: str, start: float, end: float) -> None:
        """Record a span the benchmark timed itself (an app invocation)."""
        self.spans.append((name, layer, start, end, -1, None, None, None))

    def chrome_trace(self) -> dict:
        """Spans as a Chrome-trace object (the first ``MAX_TRACE_EVENTS``)."""
        spans = self.spans
        t0 = min((s[2] for s in spans), default=0.0)
        pid = os.getpid()
        events: List[dict] = [{
            "ph": "M", "name": "process_name", "pid": pid, "tid": "bench",
            "ts": 0, "args": {"name": "e2e-benchmark"},
        }]
        for index, (name, layer, start, end, parent, sid, _note, error) in enumerate(
            spans[:MAX_TRACE_EVENTS]
        ):
            args: Dict[str, Any] = {"span": index, "parent": parent}
            if sid is not None:
                args["serve_id"] = sid
            if error is not None:
                args["error"] = error
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": pid, "tid": layer,
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6, "args": args,
            })
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        payload["otherData"] = {
            "spans": len(spans),
            "exported": min(len(spans), MAX_TRACE_EVENTS),
            "missing_patch_points": list(self.missing),
        }
        return payload


class SpanTable:
    """Column views over a finished recording, grouped by span name."""

    def __init__(self, spans: List[Span]) -> None:
        self.spans = spans
        self.by_name: Dict[str, List[int]] = {}
        for index, span in enumerate(spans):
            self.by_name.setdefault(span[0], []).append(index)
        child = np.zeros(len(spans))
        for span in spans:
            if span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        self._child_seconds = child

    def rows(self, name: str) -> List[Span]:
        return [self.spans[i] for i in self.by_name.get(name, ())]

    def durations(self, name: str) -> np.ndarray:
        return np.array([s[3] - s[2] for s in self.rows(name)], dtype=float)

    def self_seconds(self, name: str) -> np.ndarray:
        """Duration minus the time covered by each span's children."""
        idx = self.by_name.get(name, [])
        return self.durations(name) - self._child_seconds[idx]

    def notes(self, name: str) -> List[Any]:
        return [s[6] for s in self.rows(name)]

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))


#: Opcodes ``lower.op.<opname>_ms`` reports (``repro.edgetpu.isa``).
OPNAMES = (
    "conv2D", "FullyConnected", "sub", "add", "mul", "crop", "ext", "mean",
    "max", "tanh", "ReLu", "conv2D_nn", "pool", "softmax",
)
#: Invocations of ``batch-apps``: the Table 3 apps, then the NN models.
APP_NAMES = (
    "backprop", "blackscholes", "gaussian", "gemm", "hotspot3d", "lud",
    "pagerank", "lenet", "attention",
)


def _mean(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(values.mean()) if values.size else 0.0


def pct(values, q: float) -> float:
    """The *q*-th percentile of *values*, 0 when there are none."""
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else 0.0


def layer_metrics(table: SpanTable, facts: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric, from the spans and the run's own facts.

    *facts* carries what the workload measured outside the wrappers:
    ``requests`` (delivered requests, or app invocations), the window's
    host ``window_seconds``, the summed host latency ``latency_sum``,
    modeled device totals, and the run-validity numbers.  A layer the
    workload never enters reports 0.
    """
    us, ms = 1e6, 1e3
    n = max(facts["requests"], 1)
    wall = facts["window_seconds"]
    spans = table.spans
    m: Dict[str, float] = {}

    # serve.admission: queue wait runs from offer to the drain that
    # returned the request (its first, if it was preempted and requeued).
    m["admission.offer_us"] = _mean(table.durations("admission.offer")) * us
    m["admission.drain_us"] = _mean(table.durations("admission.drain")) * us
    offered_at = {s[5]: s[3] for s in table.rows("admission.offer")}
    waits, depths = [], []
    for s in table.rows("admission.drain"):
        drained, depth = s[6]
        depths.append(depth)
        for sid in drained:
            at = offered_at.pop(sid, None)
            if at is not None:
                waits.append(s[3] - at)
    m["admission.wait_ms_p50"] = pct(waits, 50) * ms
    m["admission.wait_ms_p99"] = pct(waits, 99) * ms
    m["admission.depth_p99"] = pct(depths, 99)
    m["admission.requeues"] = float(table.count("admission.requeue"))

    # serve.slo
    m["slo.should_shed_us"] = _mean(table.durations("slo.should_shed")) * us
    m["slo.shed"] = float(sum(table.notes("slo.should_shed")))
    m["slo.level_max"] = float(max(table.notes("slo.observe"), default=0))

    # serve.coalescer
    offered = sum(note[0] for note in table.notes("coalesce"))
    groups = [g for note in table.notes("coalesce") for g in note[1]]
    m["coalesce.us_per_req"] = table.durations("coalesce").sum() / max(offered, 1) * us
    m["coalesce.group_size_mean"] = _mean(groups)
    m["coalesce.coalesced_share"] = sum(g for g in groups if g > 1) / max(sum(groups), 1)

    # runtime.tensorizer: a solo lowering is one not nested in another.
    solo_index = [
        i for i in table.by_name.get("lower", [])
        if spans[i][4] < 0 or spans[spans[i][4]][0] not in ("lower", "lower.coalesced")
    ]
    solo = [spans[i] for i in solo_index]
    solo_seconds = np.array([s[3] - s[2] for s in solo], dtype=float)
    coalesced = table.rows("lower.coalesced")
    coalesced_seconds = table.durations("lower.coalesced")
    members = sum(len(s[6]) for s in coalesced)
    m["lower.solo_us_p50"] = pct(solo_seconds, 50) * us
    m["lower.solo_us_p99"] = pct(solo_seconds, 99) * us
    m["lower.coalesced_us_per_req"] = coalesced_seconds.sum() / max(members, 1) * us
    m["lower.wall_share"] = (solo_seconds.sum() + coalesced_seconds.sum()) / wall
    by_op = {op: 0.0 for op in OPNAMES}
    for s in solo:
        by_op[s[6]] = by_op.get(s[6], 0.0) + s[3] - s[2]
    by_op["conv2D"] += coalesced_seconds.sum()
    for op in OPNAMES:
        m[f"lower.op.{op}_ms"] = by_op[op] / n * ms

    # plan: a warm bind is a solo lowering whose plan lookup hit.
    gets = table.notes("plan.get")
    hit_parents = {s[4] for s in table.rows("plan.get") if s[6]}
    binds = [spans[i][3] - spans[i][2] for i in solo_index if i in hit_parents]
    m["plan.get_us"] = _mean(table.durations("plan.get")) * us
    m["plan.hit_rate"] = sum(gets) / len(gets) if gets else 0.0
    m["plan.misses"] = float(len(gets) - sum(gets))
    m["plan.bind_us_p50"] = pct(binds, 50) * us

    # runtime.scheduler
    m["schedule.build_groups_us"] = _mean(table.durations("schedule.build_groups")) * us
    m["schedule.groups_per_req"] = sum(table.notes("schedule.build_groups")) / n

    # serve.dispatcher: device-queue wait runs from DevicePool.submit to
    # the first group_service_seconds call for the same group.  Groups
    # are matched by id() in time order, since freed ids are reused.
    events = sorted(
        [(s[3], 0, s[6]) for s in table.rows("pool.submit")]
        + [(s[2], 1, s[6][0]) for s in table.rows("service")]
    )
    submitted_at: Dict[int, float] = {}
    queue_waits = []
    for at, kind, group in events:
        if kind == 0:
            submitted_at[group] = at
        elif group in submitted_at:
            queue_waits.append(at - submitted_at.pop(group))
    m["pool.submit_us"] = _mean(table.durations("pool.submit")) * us
    m["pool.queue_wait_ms_p50"] = pct(queue_waits, 50) * ms
    m["pool.queue_wait_ms_p99"] = pct(queue_waits, 99) * ms
    m["pool.retries"] = float(facts.get("retries", 0))

    # runtime.executor
    m["service.us_per_group"] = _mean(table.durations("service")) * us
    m["service.model_ms_per_group"] = _mean([note[1] for note in table.notes("service")]) * ms
    m["executor.sync_ms"] = _mean(table.durations("executor.sync")) * ms

    # integrity
    verify_seconds = table.durations("verify")
    m["verify.us_per_group"] = _mean(verify_seconds) * us
    m["verify.tiles_per_group"] = _mean(table.notes("verify"))
    m["verify.wall_share"] = verify_seconds.sum() / wall

    # serve.metrics and runtime.api
    delivery_seconds = table.durations("metrics.record_delivery")
    m["metrics.record_delivery_us"] = _mean(delivery_seconds) * us
    m["api.invoke_self_us"] = _mean(table.self_seconds("api.invoke_operator")) * us

    # edgetpu (modeled): serving runs read the server snapshot, batch
    # runs the sync reports.
    syncs = table.notes("executor.sync")
    busy = facts.get("busy_seconds", sum(note[0] for note in syncs))
    model_seconds = facts.get("model_seconds", sum(note[1] for note in syncs))
    moved = facts.get("bytes_moved", sum(note[2] for note in syncs))
    m["device.busy_model_ms_per_req"] = busy / n * ms
    m["device.util_model"] = busy / (model_seconds * facts["tpus"]) if model_seconds else 0.0
    m["device.bytes_per_req"] = moved / n

    # mp: parent side from the spans, worker side from the snapshot and
    # the reaped workers' rusage.
    m["mp.encode_us"] = _mean(table.durations("mp.encode")) * us
    m["mp.ring_full"] = float(sum(1 for s in table.rows("mp.encode") if s[7] == "RingFull"))
    m["mp.parent_cpu_ms_per_req"] = facts.get("parent_cpu_seconds", 0.0) / n * ms
    m["mp.worker_cpu_ms_per_req"] = facts.get("worker_cpu_seconds", 0.0) / n * ms
    m["mp.worker_host_ms_per_req"] = facts.get("worker_host_seconds", 0.0) / n * ms

    # apps / nn
    app_host = facts.get("app_host_ms", {})
    for name in APP_NAMES:
        m[f"app.{name}_host_ms"] = float(app_host.get(name, 0.0))

    # Host speed (untraced), modeled outcome, accuracy, and run validity.
    for key in ("latency_p50_ms", "latency_p90_ms", "throughput_rps", "cpu_ms_per_req",
                "model_p50_s", "model_p99_s", "apps_speedup_geomean",
                "apps_mape_max_pct", "rmse_pct", "failed_share"):
        m[key] = float(facts.get(key, 0.0))
    m["loadgen.lag_p99_ms"] = float(facts.get("lag_p99_ms", 0.0))
    m["loadgen.latency_p99_ms"] = float(facts.get("latency_p99_ms", 0.0))
    m["trace.overhead"] = facts["trace_overhead"]

    # Ledger: the share of summed latency no measured stage covers.  A
    # coalesced lowering delays each of its members by its full length.
    if syncs:
        attributed = solo_seconds.sum() + table.durations("executor.sync").sum()
    else:
        attributed = (
            sum(waits)
            + solo_seconds.sum()
            + sum((s[3] - s[2]) * len(s[6]) for s in coalesced)
            + sum(queue_waits)
            + verify_seconds.sum()
            + delivery_seconds.sum()
        )
    m["ledger.unattributed_share"] = 1.0 - attributed / facts["latency_sum"]
    return m
