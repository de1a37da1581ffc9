"""The four workloads of the end-to-end benchmark, one per process.

``run.py`` calls :func:`main` once per workload run, in a fresh process
with BLAS threads pinned to one, and reads the JSON it prints last.  By
hand (with ``src`` on ``PYTHONPATH``)::

    python3 workloads.py --workload serve-steady --seed 7 --seconds 15 --trace 0

Every input is built here from ``--seed``: arrival schedules come from
:func:`repro.serve.build_schedule`, operands from seeded generators.
The program only ever sees the generated requests.

Three serving workloads share one traffic mix: lognormal GEMM sizes
(median 64, sigma 0.6) on the 32-256 ladder, one shared weight matrix
per size, gold/silver/bronze tenants in a 20/30/50 split with deadline
budgets of 0.5/2/8 s, ABFT on, plan cache on, sharding off and
``time_scale=0`` (modeled device time is accounted, never slept).  The
seed sets the arrival instants, tenants, operands and the order of the
sizes; the multiset of sizes is one fixed lognormal draw, so a seed
never changes how much work a run holds.

The end-to-end metrics are set-up time, goodput, modeled energy and
peak memory.  Host latency, throughput and CPU per request are
per-layer metrics, reported by ``--trace 1`` from its untraced run:
on a shared host their run-to-run spread is wider than any bound that
would catch a regression.

* ``serve-steady`` -- the in-process ``TpuServer`` on the real clock,
  fed open-loop at 300 req/s; latency runs from each request's due time
  to its delivery.
* ``serve-saturate`` -- the same server on a virtual clock, arrivals
  submitted as fast as the host serves them (bursts of 8, 4 cooperative
  yields each).  Queues build, coalescing does most of its work, and
  the modeled outcome is bit-for-bit reproducible from the seed.
* ``mp-steady`` -- ``MpTpuServer(workers=1)`` on the real clock at
  200 req/s: the only workload that crosses processes.
* ``batch-apps`` -- no server: the seven Table 3 apps at their default
  parameters on an 8-TPU ``OpenCtpu`` (plan cache off), plus LeNet
  (batch 64) and the attention block.

A "request" is one serving request, or one app or model invocation in
``batch-apps``.  Host seconds and modeled seconds are never summed.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Optional

import numpy as np

from layers import Recorder, SpanTable, layer_metrics, pct

from repro.apps import all_applications
from repro.edgetpu.isa import Opcode
from repro.errors import LoadShed, QueueFull, RequestTimeout
from repro.host.energy import EnergyModel
from repro.host.platform import Platform
from repro.metrics import rmse_percent
from repro.metrics.errors import bound_for_app
from repro.mp import MpTpuServer
from repro.nn.models import attention, lenet, sample_input
from repro.runtime.api import OpenCtpu
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import Tensorizer
from repro.serve import ServeConfig, SloPolicy, TpuServer, build_schedule, gold_silver_bronze
from repro.serve.arrivals import DEFAULT_SIZE_LADDER, ArrivalSchedule, lognormal_sizes

TIER_SHARES = {"gold": 0.2, "silver": 0.3, "bronze": 0.5}
TIER_BUDGETS = (0.5, 2.0, 8.0)
TPUS = 8
#: Set-ups per run; ``setup_s`` is their median.  The first one or two
#: in a process run slower (first calls), and the median of five lands
#: past them.
SETUPS = 5
#: Saturate submits this many arrivals between ``TICKS`` cooperative
#: yields: ``run_sustained``'s service-capacity model.
BURST, TICKS = 8, 4
#: One delivered request in this many is checked bit-for-bit against a
#: solo lowering after the timed window.
SAMPLE_EVERY = 50
LENET_BATCH = 64
#: Host seconds of one batch-apps pass on a 2-core x86 VM; sets the
#: number of timed passes per ``--seconds``.
BATCH_PASS_SECONDS = 3.0


@dataclass(frozen=True)
class ServeWorkload:
    """One serving workload: clock, arrival rate and request count."""

    name: str
    #: Arrival rate in requests per second of the workload's clock.
    rate: float
    #: Requests offered per ``--seconds`` of run.
    per_second: float
    #: True drives a virtual clock as fast as the host serves.
    virtual: bool = False
    workers: int = 0


SERVE_WORKLOADS = {
    w.name: w
    for w in (
        # About a quarter of in-process capacity: every layer works on
        # every request, but coalescing has little to merge.  Higher
        # rates queue more, and the p90 then swings with host speed.
        ServeWorkload("serve-steady", rate=300.0, per_second=300.0),
        # The model rate only scales virtual time (the tick model sets
        # the queueing); 120/s keeps the modeled p99 near 0.2 s, well
        # inside gold's 0.5 s budget, so no request times out.  The host
        # serves about 2000 req/s on 2 cores, so a run lasts roughly
        # --seconds.
        ServeWorkload("serve-saturate", rate=120.0, per_second=2000.0, virtual=True),
        # workers=2 is left out: on 2 cores its p99 spread 8-15 ms between
        # identical runs.
        ServeWorkload("mp-steady", rate=200.0, per_second=200.0, workers=1),
    )
}
WORKLOADS = tuple(SERVE_WORKLOADS) + ("batch-apps",)


class VirtualClock:
    """A settable model-time clock (the serving stack's clock contract)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _operand(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(-64, 64, size=(n, n)).astype(np.float32)


def _gemm(a: np.ndarray, b: np.ndarray, tenant: str) -> OperationRequest:
    # One dispatch group per GEMM, as in run_sustained's traffic.
    return OperationRequest(
        task_id=0,
        opcode=Opcode.CONV2D,
        inputs=(a, b),
        quant=QuantMode.SCALE,
        attrs={"gemm": True, "gemm_chunks": 1},
        tenant=tenant,
    )


def _cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident memory so far (of the largest reaped child, for children)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


class Traffic:
    """The seeded request stream of one serving run."""

    def __init__(self, seed: int, requests: int, rate: float) -> None:
        schedule = build_schedule(
            requests=requests, rate=rate, seed=seed, tenant_shares=TIER_SHARES
        )
        # The same sizes for every seed (one lognormal draw), in the
        # seed's order: across seeds only where the big GEMMs fall moves.
        sizes = np.random.default_rng(seed + 1).permutation(
            lognormal_sizes(requests, 0, median=64.0, sigma=0.6)
        )
        self.schedule = ArrivalSchedule(
            arrivals=tuple(
                replace(arrival, size=int(size))
                for arrival, size in zip(schedule.arrivals, sizes)
            ),
            rate=rate,
            seed=seed,
        )
        self._rng = np.random.default_rng(seed + 3)
        self.weights = {n: _operand(self._rng, n) for n in DEFAULT_SIZE_LADDER}
        pick = np.random.default_rng(seed + 4).random(requests)
        self.sampled = set(np.flatnonzero(pick < 1.0 / SAMPLE_EVERY).tolist())
        #: Sampled requests, kept for the check after the window.
        self.kept: Dict[int, OperationRequest] = {}
        warm = np.random.default_rng(seed + 5)
        self.warmups = [
            _gemm(_operand(warm, n), self.weights[n], "gold") for n in DEFAULT_SIZE_LADDER
        ]

    def request(self, index: int) -> OperationRequest:
        """The request of arrival *index*; operands are drawn in order."""
        arrival = self.schedule.arrivals[index]
        request = _gemm(
            _operand(self._rng, arrival.size), self.weights[arrival.size], arrival.tenant
        )
        if index in self.sampled:
            self.kept[index] = request
        return request


class Outcomes:
    """Per-arrival outcome codes and timings, filled by done-callbacks."""

    def __init__(self, n: int, clock: Optional[VirtualClock], traffic: Traffic) -> None:
        #: D delivered, T timeout, F failed, S shed, Q queue full, ? open.
        self.codes = bytearray(b"?" * n)
        self.latency = np.full(n, np.nan)
        self.model_latency = np.full(n, np.nan)
        self.done_at = np.full(n, np.nan)
        self.lag = np.zeros(n)
        self.results: Dict[int, np.ndarray] = {}
        self._clock = clock
        self._traffic = traffic

    def settle(self, index: int, start: float, fut: "asyncio.Future") -> None:
        now = time.perf_counter()
        exc = None if fut.cancelled() else fut.exception()
        if fut.cancelled() or exc is not None:
            self.codes[index] = ord("T" if isinstance(exc, RequestTimeout) else "F")
            return
        self.codes[index] = ord("D")
        self.latency[index] = now - start
        self.done_at[index] = now
        if self._clock is not None:
            at = self._traffic.schedule.arrivals[index].at
            self.model_latency[index] = self._clock.now - at
        if index in self._traffic.sampled:
            self.results[index] = fut.result()

    def submit(self, server, traffic: Traffic, index: int, start: float) -> None:
        try:
            fut = server.submit_nowait(traffic.request(index))
        except LoadShed:
            self.codes[index] = ord("S")
            return
        except QueueFull:
            self.codes[index] = ord("Q")
            return
        fut.add_done_callback(partial(self.settle, index, start))

    def count(self, code: str) -> int:
        return self.codes.count(code.encode())


def _serve_config() -> ServeConfig:
    return ServeConfig(
        time_scale=0.0,
        integrity="abft",
        plan_cache=True,
        shard="off",
        slo=SloPolicy(
            tiers=gold_silver_bronze(*TIER_BUDGETS),
            tenant_tiers={name: name for name in TIER_SHARES},
        ),
    )


def _snapshot_totals(snap: dict) -> Dict[str, float]:
    return {
        "busy_seconds": sum(d["busy_seconds"] for d in snap["devices"].values()),
        "bytes_moved": snap["bytes"]["in"] + snap["bytes"]["out"],
        "retries": snap["retries"],
        "coalesced": snap["coalescing"]["requests_coalesced"],
        "worker_host_seconds": sum(snap.get("workers", {}).get("host_seconds", {}).values()),
    }


async def _quiesce(server) -> None:
    """Let an MpTpuServer drain its workers' event pipes.

    ``MpTpuServer.snapshot()`` and ``stop()`` wait on each worker
    synchronously, and a worker blocked writing plan gossip into a full
    event pipe cannot answer until this loop reads that pipe; without
    this they stall for their 30 s reply timeout.
    """
    if isinstance(server, MpTpuServer):
        await asyncio.sleep(0.2)


async def _serve_run(
    workload: ServeWorkload,
    seed: int,
    seconds: float,
    recorder: Optional[Recorder],
) -> dict:
    requests = max(int(round(workload.per_second * seconds)), 1)
    traffic = Traffic(seed, requests, workload.rate)
    vclock = VirtualClock() if workload.virtual else None
    clock: Callable[[], float] = vclock if vclock is not None else time.monotonic

    setup_times: List[float] = []
    for attempt in range(SETUPS):
        deliveries: Dict[int, int] = {}

        def observe(event: str, serve_id: int, device: int, counts=deliveries) -> None:
            if event == "deliver":
                counts[serve_id] = counts.get(serve_id, 0) + 1

        gc.collect()  # the traffic's garbage is not the program's set-up
        children_cpu0 = _cpu_seconds(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        platform = Platform.with_tpus(TPUS)
        if workload.workers:
            server = MpTpuServer(
                platform, _serve_config(), clock=clock, workers=workload.workers
            )
        else:
            server = TpuServer(platform, _serve_config(), clock=clock)
        server.pool.observer = observe
        await server.start()
        for request in traffic.warmups:
            await server.submit(request)
        setup_times.append(time.perf_counter() - t0)
        await _quiesce(server)
        if attempt < SETUPS - 1:
            await server.stop()

    out = Outcomes(requests, vclock, traffic)
    before = _snapshot_totals(server.snapshot())
    arrivals = traffic.schedule.arrivals
    gc.collect()
    if recorder is not None:
        recorder.install()
    cpu0 = _cpu_seconds()
    if vclock is not None:
        start = time.perf_counter()
        for index, arrival in enumerate(arrivals):
            vclock.now = arrival.at
            out.submit(server, traffic, index, time.perf_counter())
            if (index + 1) % BURST == 0:
                for _ in range(TICKS):
                    await asyncio.sleep(0)
    else:
        start = time.perf_counter() + 0.005
        for index, arrival in enumerate(arrivals):
            due = start + arrival.at
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            out.lag[index] = time.perf_counter() - due
            out.submit(server, traffic, index, due)
    await server.drain()
    # Done-callbacks run one loop turn after their future resolves.
    for _ in range(4):
        await asyncio.sleep(0)
    cpu = _cpu_seconds() - cpu0
    # Read before the checks below, whose float64 references are not
    # the program's memory.
    rss = _peak_rss_mb()
    if recorder is not None:
        recorder.uninstall()
    await _quiesce(server)
    after = _snapshot_totals(server.snapshot())
    await server.stop()
    if workload.workers:
        rss += _peak_rss_mb(resource.RUSAGE_CHILDREN)
    worker_cpu = _cpu_seconds(resource.RUSAGE_CHILDREN) - children_cpu0
    delta = {key: after[key] - before[key] for key in after}

    delivered = out.count("D")
    violations: List[str] = []
    if out.count("?"):
        violations.append(f"{out.count('?')} requests never resolved (lost)")
    lost = server.snapshot()["outcomes"]["lost"]
    if lost:
        violations.append(f"server accounting lost {lost} requests")
    duplicated = sum(1 for n in deliveries.values() if n > 1)
    if duplicated:
        violations.append(f"{duplicated} requests delivered more than once")
    if sum(deliveries.values()) != delivered + len(traffic.warmups):
        violations.append(
            f"{sum(deliveries.values())} deliver events for "
            f"{delivered + len(traffic.warmups)} delivered requests"
        )

    # Solo lowering after the window: the same request alone, through a
    # fresh plan-free Tensorizer, must give the delivered bytes exactly.
    reference = Tensorizer(platform.config.edgetpu, cpu=platform.cpu)
    mismatches = 0
    errors: List[float] = []
    for index in sorted(out.results):
        request = traffic.kept[index]
        got = out.results[index]
        if not np.array_equal(got, reference.lower(request).result):
            mismatches += 1
        a, b = request.inputs
        errors.append(rmse_percent(got, a.astype(np.float64) @ b.astype(np.float64)))
    if mismatches:
        violations.append(f"{mismatches} sampled results differ from solo lowering")
    if not errors:
        violations.append("no sampled request was delivered")

    offered = requests
    failed = offered - delivered + mismatches
    delivered_mask = np.frombuffer(bytes(out.codes), dtype=np.uint8) == ord("D")
    latency = out.latency[delivered_mask]
    wall = float(np.nanmax(out.done_at)) - start if delivered else seconds
    cpu_total = cpu + (delta["worker_host_seconds"] if workload.workers else 0.0)
    watts = EnergyModel(platform.config).active_power_watts("tpu0")
    n = max(delivered, 1)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "goodput": (delivered - mismatches) / offered,
        "joules_per_req": delta["busy_seconds"] * watts / n,
        "rss_peak_mb": rss,
    }
    model = out.model_latency[delivered_mask]
    digest = hashlib.sha256(traffic.schedule.digest().encode() + bytes(out.codes))
    facts = {
        "requests": n,
        "window_seconds": wall,
        "latency_sum": float(np.sum(latency)),
        "latency_p50_ms": pct(latency, 50) * 1e3,
        "latency_p90_ms": pct(latency, 90) * 1e3,
        "latency_p99_ms": pct(latency, 99) * 1e3,
        "throughput_rps": delivered / wall,
        "cpu_ms_per_req": cpu_total / n * 1e3,
        "busy_seconds": delta["busy_seconds"],
        "model_seconds": traffic.schedule.span_seconds if vclock is not None else wall,
        "tpus": TPUS,
        "bytes_moved": delta["bytes_moved"],
        "retries": delta["retries"],
        "parent_cpu_seconds": cpu if workload.workers else 0.0,
        "worker_cpu_seconds": worker_cpu if workload.workers else 0.0,
        "worker_host_seconds": delta["worker_host_seconds"],
        "model_p50_s": pct(model, 50) if vclock is not None else 0.0,
        "model_p99_s": pct(model, 99) if vclock is not None else 0.0,
        "rmse_pct": float(np.mean(errors)) if errors else 0.0,
        "failed_share": failed / offered,
        "lag_p99_ms": pct(out.lag, 99) * 1e3,
    }
    outcome_counts = {c: out.count(c) for c in "DTFSQ?" if out.count(c)}
    return {
        "violations": violations,
        "attempted": offered,
        "failed": failed,
        "end_to_end": end_to_end,
        "facts": facts,
        "diagnostics": {
            "outcomes": outcome_counts,
            "digest": digest.hexdigest(),
            "model_p50_s": facts["model_p50_s"],
            "model_p99_s": facts["model_p99_s"],
            "joules_per_req": end_to_end["joules_per_req"],
            "coalesced_share": delta["coalesced"] / n,
        },
    }


# -- batch-apps ------------------------------------------------------------


def _invocations(seed: int, inputs: Dict[str, dict]) -> Dict[str, Callable[[OpenCtpu], tuple]]:
    """Name -> call(ctx) returning (value, modeled seconds, active J).

    Fills *inputs* with each app's generated dataset.
    """
    calls: Dict[str, Callable[[OpenCtpu], tuple]] = {}
    for name, app in sorted(all_applications().items()):
        inputs[name] = app.generate(seed=seed, **app.default_params())

        def run_app(ctx, app=app, data=inputs[name]):
            res = app.run_gptpu(data, ctx)
            return res.value, res.wall_seconds, res.energy.active_joules

        calls[name] = run_app
    for name, build, batch in (("lenet", lenet, LENET_BATCH), ("attention", attention, None)):
        model = build(seed)
        x = sample_input(model, batch=batch or 2, seed=seed)

        def run_model(ctx, model=model, x=x):
            value = model.forward(ctx, x)
            report = ctx.sync()
            return value, report.wall_seconds, report.energy.active_joules

        calls[name] = run_model
    return calls


def _batch_pass(calls, recorder: Optional[Recorder] = None) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for name, call in calls.items():
        ctx = OpenCtpu(Platform.with_tpus(TPUS))
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        value, model_seconds, joules = call(ctx)
        t1 = time.perf_counter()
        cpu = time.process_time() - cpu0
        if recorder is not None:
            recorder.mark(f"app.{name}", "apps", t0, t1)
        out[name] = {
            "host": t1 - t0,
            "cpu": cpu,
            "value": np.asarray(value),
            "model_seconds": model_seconds,
            "joules": joules,
        }
    return out


def _batch_run(seed: int, seconds: float, recorder: Optional[Recorder]) -> dict:
    setup_times: List[float] = []
    inputs: Dict[str, dict] = {}
    for _ in range(SETUPS):
        gc.collect()
        t0 = time.perf_counter()
        calls = _invocations(seed, inputs)
        warm = _batch_pass(calls)
        setup_times.append(time.perf_counter() - t0)

    if recorder is not None:
        recorder.install()
    # A fixed pass count keeps the latency percentiles on the same
    # invocations from run to run.
    passes = [
        _batch_pass(calls, recorder)
        for _ in range(max(int(round(seconds / BATCH_PASS_SECONDS)), 1))
    ]
    if recorder is not None:
        recorder.uninstall()
    rss = _peak_rss_mb()

    apps = all_applications()
    platform = Platform()
    violations: List[str] = []
    rmse: List[float] = []
    mape: List[float] = []
    speedups: List[float] = []
    failed = 0
    for name in calls:
        first = warm[name]["value"]
        bad = sum(not np.array_equal(p[name]["value"], first) for p in passes)
        if bad:
            violations.append(f"{name}: {bad} passes differ from the warm-up pass")
        if name in apps:
            cpu = apps[name].run_cpu(inputs[name], platform.cpu)
            check = bound_for_app(name).check(first, cpu.value)
            if not check.ok:
                violations.append(f"{name}: {'; '.join(check.violations())}")
                bad = len(passes)
            rmse.append(check.rmse_percent)
            mape.append(check.mape_percent)
            speedups.append(cpu.seconds / warm[name]["model_seconds"])
        failed += bad

    # Medians over passes: a short host slowdown moves one pass, not the
    # result.  Latency percentiles run over the nine invocations' median
    # host times, so the pass count never shifts which invocation they
    # land on.
    per_pass = len(calls)
    attempted = per_pass * len(passes)
    pass_host = [sum(rec["host"] for rec in p.values()) for p in passes]
    pass_cpu = [sum(rec["cpu"] for rec in p.values()) for p in passes]
    app_host = {name: statistics.median(p[name]["host"] for p in passes) for name in calls}
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "goodput": (attempted - failed) / attempted,
        "joules_per_req": sum(p[name]["joules"] for p in passes for name in p) / attempted,
        "rss_peak_mb": rss,
    }
    facts = {
        "requests": attempted,
        "window_seconds": sum(pass_host),
        "latency_sum": sum(pass_host),
        "latency_p50_ms": pct(list(app_host.values()), 50) * 1e3,
        "latency_p90_ms": pct(list(app_host.values()), 90) * 1e3,
        "latency_p99_ms": pct(list(app_host.values()), 99) * 1e3,
        "throughput_rps": per_pass / statistics.median(pass_host),
        "cpu_ms_per_req": statistics.median(pass_cpu) / per_pass * 1e3,
        "tpus": TPUS,
        "app_host_ms": {name: seconds * 1e3 for name, seconds in app_host.items()},
        "apps_speedup_geomean": float(np.exp(np.mean(np.log(speedups)))),
        "apps_mape_max_pct": max(mape),
        "rmse_pct": float(np.mean(rmse)),
        "failed_share": failed / attempted,
    }
    return {
        "violations": violations,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "facts": facts,
        "diagnostics": {
            "pass_seconds": pass_host,
            "setup_seconds": setup_times,
            "apps_speedup_geomean": facts["apps_speedup_geomean"],
            "apps_mape_max_pct": facts["apps_mape_max_pct"],
        },
    }


# -- entry point -----------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, recorder: Optional[Recorder] = None) -> dict:
    """One measured run of *name*; wrappers are live only in its window."""
    if name == "batch-apps":
        return _batch_run(seed, seconds, recorder)
    return asyncio.run(_serve_run(SERVE_WORKLOADS[name], seed, seconds, recorder))


def traced_run(name: str, seed: int, seconds: float, trace_file: str) -> dict:
    """An untraced run, then a traced one; returns the per-layer metrics."""
    base = run_workload(name, seed, seconds)
    recorder = Recorder()
    traced = run_workload(name, seed, seconds, recorder)
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(recorder.chrome_trace(), fh)
    facts = dict(traced["facts"])
    facts["trace_overhead"] = (
        traced["facts"]["cpu_ms_per_req"] / base["facts"]["cpu_ms_per_req"] - 1.0
    )
    # Host, outcome and accuracy numbers come from the untraced run; the
    # wrappers would inflate every host time they cover.
    for key in ("latency_p50_ms", "latency_p90_ms", "latency_p99_ms", "throughput_rps",
                "cpu_ms_per_req", "model_p50_s", "model_p99_s", "rmse_pct", "failed_share",
                "lag_p99_ms", "app_host_ms", "apps_speedup_geomean", "apps_mape_max_pct"):
        if key in base["facts"]:
            facts[key] = base["facts"][key]
    return {
        "violations": base["violations"] + traced["violations"],
        "attempted": base["attempted"] + traced["attempted"],
        "failed": base["failed"] + traced["failed"],
        "per_layer": layer_metrics(SpanTable(recorder.spans), facts),
        "missing_patch_points": recorder.missing,
        "diagnostics": {"untraced": base["diagnostics"], "traced": traced["diagnostics"]},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", default="trace.json")
    args = parser.parse_args(argv)
    if args.trace:
        result = traced_run(args.workload, args.seed, args.seconds, args.trace_file)
    else:
        result = run_workload(args.workload, args.seed, args.seconds)
        result.pop("facts")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
