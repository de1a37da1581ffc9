"""Compiled-plan conformance: cached replay must be invisible.

The AOT plan cache (:mod:`repro.plan`) is a pure performance transform —
lower once, bind many.  This suite proves the "pure" part from the
outside, with three independent properties:

1. **Replay bit-identity** — for every operator in the catalog and every
   Table 3 application, three runs must agree byte-for-byte: a plan-free
   pipeline run, a cold run that *captures* plans into a fresh cache,
   and a warm run that *replays* from that cache.  The warm run must
   actually replay (``plan_replays > 0``), so the equality is not
   vacuous.
2. **Byte-exact round-trips** — every plan those runs captured must
   survive ``serialize_plan → parse_plan → serialize_plan`` bit-for-bit,
   with structural equality of the parsed plan (templates, geometry).
3. **Defenses compose** — ABFT still detects seeded silent data
   corruption when results come from cached plans: a loadgen campaign
   with a bit-flipping device, ``integrity="abft"``, and the plan cache
   on must detect every corruption, deliver zero mismatched results,
   and actually serve warm binds while doing so.

Everything derives from the campaign seed; no wall-clock values enter
the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.apps import all_applications
from repro.config import SystemConfig
from repro.conformance.cases import APP_PARAMS, OP_CASES
from repro.conformance.oracles import _as_array, derive_rng, pipeline_context
from repro.host.platform import Platform
from repro.loadgen import LoadgenSpec, run_loadgen
from repro.plan.cache import PlanCache
from repro.plan.compiled import CompiledPlan
from repro.plan.serial import parse_plan, serialize_plan
from repro.runtime.api import OpenCtpu


@dataclass
class PlansReport:
    """Aggregate outcome of one compiled-plan conformance run."""

    ops: List[dict] = field(default_factory=list)
    apps: List[dict] = field(default_factory=list)
    #: Plans that survived serialize → parse → serialize byte-exactly.
    roundtrips: int = 0
    #: Warm-path replays observed across all runs (must be non-zero).
    replays: int = 0
    abft: dict = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "ops_checked": len(self.ops),
            "apps_checked": len(self.apps),
            "roundtrips": self.roundtrips,
            "replays": self.replays,
            "ops": list(self.ops),
            "apps": list(self.apps),
            "abft": dict(self.abft),
            "violations": list(self.violations),
            "ok": self.ok,
        }


def _plan_context(cache: PlanCache) -> OpenCtpu:
    """A pipeline-path runtime sharing *cache* for capture/replay runs."""
    return OpenCtpu(Platform(SystemConfig().with_tpus(1)), plan_cache=cache)


def _settle(ctx: OpenCtpu) -> None:
    if ctx.pending_operations:
        ctx.sync()


def _plans_equal(a: CompiledPlan, b: CompiledPlan) -> List[str]:
    """Field-level differences between two plans' serialized fields."""
    diffs = []
    for name in ("signature", "kind", "opname", "geometry"):
        if getattr(a, name) != getattr(b, name):
            diffs.append(f"{name} differs")
    if list(a.templates) != list(b.templates):
        diffs.append("instruction templates differ")
    return diffs


def _check_roundtrip(
    plan: CompiledPlan, where: str, report: PlansReport
) -> None:
    canon = plan.without_runtime_state()
    try:
        blob = serialize_plan(canon)
        parsed = parse_plan(blob)
        again = serialize_plan(parsed)
    except Exception as exc:
        report.violations.append(
            f"{where}: plan round-trip raised {type(exc).__name__}: {exc}"
        )
        return
    if again != blob:
        report.violations.append(
            f"{where}: plan re-serialized differently "
            f"({len(again)} vs {len(blob)} bytes)"
        )
        return
    diffs = _plans_equal(canon, parsed)
    if diffs:
        report.violations.append(
            f"{where}: parsed plan is not structurally equal: "
            + "; ".join(diffs)
        )
        return
    report.roundtrips += 1


def _bytes(value) -> bytes:
    return _as_array(value).tobytes()


def _run_ops(seed: int, report: PlansReport) -> None:
    for case in OP_CASES:
        data = case.build(derive_rng(seed, "plans", case.name))

        base_ctx = pipeline_context()
        baseline = _as_array(case.invoke(base_ctx, data))
        _settle(base_ctx)

        cache = PlanCache()
        cap_ctx = _plan_context(cache)
        captured = _as_array(case.invoke(cap_ctx, data))
        _settle(cap_ctx)

        rep_ctx = _plan_context(cache)
        replayed = _as_array(case.invoke(rep_ctx, data))
        _settle(rep_ctx)

        replays = rep_ctx.tensorizer.stats.plan_replays
        report.replays += replays
        capture_identical = (
            captured.shape == baseline.shape
            and captured.tobytes() == baseline.tobytes()
        )
        replay_identical = (
            replayed.shape == baseline.shape
            and replayed.tobytes() == baseline.tobytes()
        )
        report.ops.append(
            {
                "name": case.name,
                "capture_identical": capture_identical,
                "replay_identical": replay_identical,
                "plans": len(cache),
                "hits": cache.hits,
                "replays": replays,
            }
        )
        if not capture_identical:
            report.violations.append(
                f"ops/{case.name}: capture run differs from plan-free lowering"
            )
        if not replay_identical:
            report.violations.append(
                f"ops/{case.name}: cached replay differs from plan-free lowering"
            )
        if replays == 0:
            report.violations.append(
                f"ops/{case.name}: warm run never replayed a cached plan "
                "(bit-identity is vacuous)"
            )
        for plan in cache.plans():
            _check_roundtrip(plan, f"ops/{case.name}", report)


def _run_apps(seed: int, report: PlansReport) -> None:
    apps = all_applications()
    for name, params in APP_PARAMS.items():
        app = apps[name]
        app_seed = int(
            derive_rng(seed, "plans", "apps", name).integers(0, 2**31)
        )
        inputs = app.generate(seed=app_seed, **params)

        baseline = _bytes(app.run_gptpu(inputs, pipeline_context()).value)

        # Apps like LUD lower a distinct shape per elimination step, so
        # give them headroom: an eviction would only force a re-capture
        # (still correct), but we want the warm run to actually replay.
        cache = PlanCache(max_entries=1024)
        captured = _bytes(app.run_gptpu(inputs, _plan_context(cache)).value)

        rep_ctx = _plan_context(cache)
        replayed = _bytes(app.run_gptpu(inputs, rep_ctx).value)
        replays = rep_ctx.tensorizer.stats.plan_replays
        report.replays += replays

        capture_identical = captured == baseline
        replay_identical = replayed == baseline
        report.apps.append(
            {
                "name": name,
                "params": dict(params),
                "app_seed": app_seed,
                "capture_identical": capture_identical,
                "replay_identical": replay_identical,
                "plans": len(cache),
                "hits": cache.hits,
                "replays": replays,
            }
        )
        if not capture_identical:
            report.violations.append(
                f"apps/{name}: capture run differs from plan-free lowering"
            )
        if not replay_identical:
            report.violations.append(
                f"apps/{name}: cached replay differs from plan-free lowering"
            )
        if replays == 0:
            report.violations.append(
                f"apps/{name}: warm run never replayed a cached plan"
            )
        for plan in cache.plans():
            _check_roundtrip(plan, f"apps/{name}", report)


def _run_abft(seed: int, report: PlansReport) -> None:
    spec = LoadgenSpec(
        tpus=4,
        tenants=4,
        requests_per_tenant=6,
        size=96,
        seed=int(derive_rng(seed, "plans", "abft").integers(0, 2**31)),
        fail_after_instructions=40,
        fail_mode="bitflip",
        integrity="abft",
        plan_cache=True,
    )
    result = run_loadgen(spec)
    integ = result.snapshot["integrity"]
    plan = result.snapshot.get("plan_cache") or {}
    report.abft = {
        "sdc_detected": integ["sdc_detected"],
        "sdc_corrected": integ["sdc_corrected"],
        "mismatches": result.mismatches,
        "plan_binds": plan.get("binds", 0),
        "plan_hit_rate": plan.get("hit_rate", 0.0),
    }
    if integ["sdc_detected"] == 0:
        report.violations.append(
            "abft: corruption injected but zero detections with the plan "
            "cache on"
        )
    if result.mismatches:
        report.violations.append(
            f"abft: {result.mismatches} delivered results differ from solo "
            "lowering (corruption escaped through a cached plan)"
        )
    if plan.get("binds", 0) == 0:
        report.violations.append(
            "abft: the campaign never bound a cached plan (vacuous scenario)"
        )


def run_plans(seed: int) -> PlansReport:
    """Run the full compiled-plan conformance battery."""
    report = PlansReport()
    _run_ops(seed, report)
    _run_apps(seed, report)
    _run_abft(seed, report)
    return report
