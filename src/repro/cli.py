"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``characterize``
    Run the §3.2 measurement loop and print Table 1.
``run APP``
    Run one Table 3 application (CPU baseline + GPTPU) and print the
    speedup/accuracy/energy record.
``suite``
    Run all seven applications (the Fig. 7 experiment).
``table3``
    Print the benchmark dataset inventory.
``serve``
    Run a multi-tenant serving session (repro.serve) and report it.
``nn``
    Run one repro.nn model (LeNet-style CNN or single-head attention)
    end-to-end on the simulated Edge TPU pool and print the per-layer
    latency attribution (see docs/nn.md).
``loadgen``
    Load-test the serving layer; ``--strict`` asserts the zero-lost /
    bit-identical invariants, ``--json`` archives the metrics snapshot.
``trace -- CMD ...``
    Run any other repro command with host span tracing enabled and
    export a Chrome-trace/Perfetto JSON (see docs/telemetry.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from repro.apps import APPLICATIONS
from repro.bench import (
    characterize_all,
    characterize_extensions,
    format_table,
    measure_data_exchange,
)
from repro.bench.datasets import TABLE3, scale_factor
from repro.bench.harness import mean_speedup, run_app, run_suite
from repro.bench.reporting import format_attribution


def _parse_params(pairs: Sequence[str]) -> Dict[str, int]:
    params: Dict[str, int] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        try:
            params[key] = int(value)
        except ValueError:
            raise SystemExit(f"--param values must be integers, got {pair!r}") from None
    return params


def _record_rows(record) -> List[tuple]:
    return [
        ("CPU baseline (1 core)", f"{record.cpu_seconds:.4f} s"),
        (f"GPTPU ({record.num_tpus} TPU)", f"{record.gptpu.wall_seconds:.4f} s"),
        ("speedup", f"{record.speedup:.2f}x"),
        ("MAPE", f"{record.mape_percent:.3f} %"),
        ("RMSE", f"{record.rmse_percent:.3f} %"),
        ("energy ratio (GPTPU/CPU)", f"{record.energy_ratio:.2f}"),
        ("EDP ratio", f"{record.edp_ratio:.2f}"),
        ("device instructions", f"{record.gptpu.instructions}"),
        ("PCIe bytes", f"{record.gptpu.bytes_transferred:,}"),
    ]


def cmd_characterize(_args: argparse.Namespace) -> int:
    for rows, title in (
        (characterize_all(), "Table 1 (measured via the Eqs. 1-3 loop):"),
        (characterize_extensions(), "NN extension instructions (not in the paper):"),
    ):
        print(
            format_table(
                ["operator", "OPS", "RPS", "description"],
                [(r.opname, f"{r.ops:.2f}", f"{r.rps:.2f}", r.description) for r in rows],
                title=title,
            )
        )
        print()
    print(
        format_table(
            ["transfer size", "latency"],
            [(f"{s // 1024} KiB", f"{t * 1e3:.2f} ms") for s, t in measure_data_exchange()],
            title="Data exchange (§3.2):",
        )
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    record = run_app(
        args.app, num_tpus=args.tpus, seed=args.seed, params=_parse_params(args.param)
    )
    print(format_table(["metric", "value"], _record_rows(record), title=f"{args.app}:"))
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    records = run_suite(num_tpus=args.tpus, seed=args.seed)
    print(
        format_table(
            ["app", "CPU (s)", "GPTPU (s)", "speedup", "RMSE %", "energy ratio"],
            [
                (
                    name,
                    f"{r.cpu_seconds:.4f}",
                    f"{r.gptpu.wall_seconds:.4f}",
                    f"{r.speedup:.2f}x",
                    f"{r.rmse_percent:.3f}",
                    f"{r.energy_ratio:.2f}",
                )
                for name, r in sorted(records.items())
            ],
            title=f"Application suite on {args.tpus} Edge TPU(s):",
        )
    )
    print(f"\naverage speedup: {mean_speedup(records):.2f}x")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.bench.profile import format_profile, format_tensorizer_stats, profile_trace
    from repro.host.platform import Platform
    from repro.runtime.api import OpenCtpu
    from repro.apps import all_applications
    from repro.config import SystemConfig

    app = all_applications()[args.app]
    run_params = dict(app.default_params())
    run_params.update(_parse_params(args.param))
    inputs = app.generate(seed=args.seed, **run_params)
    platform = Platform(SystemConfig().with_tpus(args.tpus))
    # Host-side span tracing rides along with the sim-time profile, so
    # one command shows both time bases (docs/telemetry.md).
    tracer = telemetry.SpanTracer(enabled=True)
    previous = telemetry.set_tracer(tracer)
    try:
        plan_cache = None
        if args.plan_cache:
            from repro.plan import PlanCache

            plan_cache = PlanCache()
        ctx = OpenCtpu(platform, plan_cache=plan_cache)
        app.run_gptpu(inputs, ctx)
    finally:
        telemetry.set_tracer(previous)
    print(f"{args.app} on {args.tpus} Edge TPU(s):\n")
    print(format_profile(profile_trace(platform.tracer)))
    print()
    print(format_tensorizer_stats(ctx.tensorizer.stats))
    print()
    print(format_attribution(tracer, title="Host span attribution:"))
    counters = ctx.counter_registry().flat()
    print()
    print(
        format_table(
            ["counter", "value"],
            [(name, f"{value:g}") for name, value in sorted(counters.items())],
            title="Unified counters:",
        )
    )
    if args.trace:
        platform.tracer.save_chrome_trace(args.trace)
        print(f"\nChrome trace (simulated time) written to {args.trace}")
    if args.host_trace:
        telemetry.save_chrome_trace(tracer, args.host_trace)
        print(f"Chrome trace (host time) written to {args.host_trace}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Concatenate archived benchmark outputs into one reproduction report."""
    import pathlib

    results = pathlib.Path(args.results_dir)
    if not results.is_dir():
        raise SystemExit(
            f"{results} not found — run `pytest benchmarks/ --benchmark-only` first"
        )
    files = sorted(results.glob("*.txt"))
    if not files:
        raise SystemExit(f"no archived results in {results}")
    sections = []
    for path in files:
        sections.append(f"## {path.stem}\n\n```\n{path.read_text().rstrip()}\n```")
    body = "# GPTPU reproduction report\n\n" + "\n\n".join(sections) + "\n"
    if args.output:
        pathlib.Path(args.output).write_text(body)
        print(f"wrote {args.output} ({len(files)} experiment blocks)")
    else:
        print(body)
    return 0


def _loadgen_spec(args: argparse.Namespace):
    from repro.loadgen import LoadgenSpec

    return LoadgenSpec(
        tpus=args.tpus,
        tenants=args.tenants,
        requests_per_tenant=args.requests,
        size=args.size,
        seed=args.seed,
        fail_after_instructions=args.fail_after,
        fail_device=args.fail_device,
        fail_mode=args.fail_mode,
        integrity=args.integrity,
        time_scale=args.time_scale,
        deadline_seconds=args.deadline,
        plan_cache=args.plan_cache,
        mix=args.mix,
        shard=args.shard,
        workers=args.workers,
    )


def _serving_rows(snapshot: dict) -> List[tuple]:
    outcomes = snapshot["outcomes"]
    latency = snapshot["latency"] or {}
    rows = [
        ("submitted", str(outcomes["submitted"])),
        ("completed", str(outcomes["completed"])),
        ("rejected (QueueFull)", str(outcomes["rejected"])),
        ("shed (LoadShed)", str(outcomes.get("shed", 0))),
        ("timeouts", str(outcomes["timeouts"])),
        ("failed", str(outcomes["failed"])),
        ("lost", str(outcomes["lost"])),
        ("p50 latency", f"{latency.get('p50_seconds', 0.0) * 1e3:.2f} ms"),
        ("p99 latency", f"{latency.get('p99_seconds', 0.0) * 1e3:.2f} ms"),
        ("p99.9 latency", f"{latency.get('p999_seconds', 0.0) * 1e3:.2f} ms"),
        ("max queue depth", str(snapshot["queue_depth"]["max"])),
        ("device failures", str(snapshot["device_failures"])),
        ("retries", str(snapshot["retries"])),
        ("coalesced requests", str(snapshot["coalescing"]["requests_coalesced"])),
        ("healthy TPUs", f"{snapshot['platform']['healthy']}/{snapshot['platform']['tpus']}"),
    ]
    plan = snapshot.get("plan_cache")
    if plan is not None:
        rows += [
            ("plan-cache hit rate", f"{plan['hit_rate'] * 100:.1f} %"),
            ("plan-cache entries", str(int(plan["entries"]))),
            ("plan binds", str(int(plan["binds"]))),
        ]
    sharding = snapshot.get("sharding", {})
    if sharding.get("enabled"):
        rows += [
            ("shard plans", str(sharding["plans"])),
            ("shard segments", str(sharding["segments"])),
            ("shard migrations", str(sharding["migrations"])),
            ("shards merged", str(sharding["merged"])),
        ]
    integrity = snapshot.get("integrity", {})
    if integrity.get("tiles_verified"):
        rows += [
            ("tiles verified", str(integrity["tiles_verified"])),
            ("SDC detected (tiles)", str(integrity["sdc_detected"])),
            ("SDC corrected (groups)", str(integrity["sdc_corrected"])),
            ("quarantines", str(integrity["quarantines"])),
        ]
    for tier, stats in sorted(snapshot.get("tiers", {}).items()):
        lat = stats.get("latency") or {}
        rows.append((
            f"  tier {tier}",
            f"{stats['completed']}/{stats['submitted']} ok, "
            f"{stats['shed']} shed, {stats['deadline_misses']} missed, "
            f"p99 {lat.get('p99_seconds', 0.0) * 1e3:.1f} ms, "
            f"p99.9 {lat.get('p999_seconds', 0.0) * 1e3:.1f} ms",
        ))
    overload = snapshot.get("overload")
    if overload is not None:
        rows.append((
            "overload governor",
            f"level {overload['level']}, {overload['escalations']} escalations, "
            f"miss EWMA {overload['miss_ewma']:.3f}",
        ))
    for name, dev in sorted(snapshot["devices"].items()):
        rows.append(
            (f"  {name}", f"{dev['groups']} groups, {dev['failures']} failures")
        )
    return rows


def cmd_serve(args: argparse.Namespace) -> int:
    """Run a self-contained multi-tenant serving session and report it."""
    from repro.loadgen import run_loadgen

    result = run_loadgen(_loadgen_spec(args))
    print(
        format_table(
            ["metric", "value"],
            _serving_rows(result.snapshot),
            title=f"repro.serve session ({args.tenants} tenants x {args.requests} GEMMs):",
        )
    )
    if result.mismatches:
        print(f"\nERROR: {result.mismatches} results differ from solo lowering")
        return 1
    print(f"\nall delivered results bit-identical to solo lowering "
          f"({result.wall_seconds:.2f} s wall)")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive the serving layer under load; optionally emit/check JSON."""
    import json

    from repro.loadgen import run_loadgen

    result = run_loadgen(_loadgen_spec(args))
    snapshot = dict(result.snapshot)
    snapshot["loadgen"] = {
        "wall_seconds": result.wall_seconds,
        "mismatches": result.mismatches,
        "delivered_by_tenant": result.delivered_by_tenant,
    }
    if args.json:
        import pathlib

        pathlib.Path(args.json).write_text(json.dumps(snapshot, indent=2) + "\n")
        print(f"wrote {args.json}")
    else:
        print(json.dumps(snapshot, indent=2))
    if args.strict:
        outcomes = snapshot["outcomes"]
        problems = []
        if outcomes["lost"] != 0:
            problems.append(f"lost={outcomes['lost']}")
        if result.mismatches:
            problems.append(f"mismatches={result.mismatches}")
        if outcomes["completed"] == 0:
            problems.append("no request completed")
        if args.fail_after > 0 and snapshot["retries"] == 0:
            problems.append("fault injected but no retries observed")
        if (
            args.fail_after > 0
            and args.fail_mode != "fail-stop"
            and args.integrity != "off"
            and snapshot["integrity"]["sdc_incidents"] == 0
        ):
            problems.append("corruption injected but no SDC detections")
        if problems:
            print("STRICT CHECK FAILED: " + ", ".join(problems))
            return 1
        print("strict checks passed: zero lost, bit-identical, "
              f"{outcomes['completed']} completed, {snapshot['retries']} retries")
    return 0


def cmd_sustained(args: argparse.Namespace) -> int:
    """Run one open-loop sustained-load scenario and report it."""
    import json

    from repro.loadgen import SustainedSpec, run_sustained

    spec = SustainedSpec(
        tpus=args.tpus,
        workers=args.workers,
        requests=args.requests,
        rate=args.rate,
        seed=args.seed,
        burst=args.burst,
        ticks=args.ticks,
        tick_seconds=args.tick_seconds,
        fail_after_instructions=args.fail_after,
        sdc_after_instructions=args.sdc_after,
        integrity=args.integrity,
        shard=args.shard,
        energy_aware=args.energy_aware,
    )
    result = run_sustained(spec)
    rows = [
        ("requests", str(args.requests)),
        ("model time", f"{result.model_seconds:.1f} s"
                       f" ({result.model_seconds / 60:.1f} min compressed)"),
        ("wall time", f"{result.wall_seconds:.2f} s"),
        ("outcomes", ", ".join(
            f"{k}={v}" for k, v in sorted(result.outcomes.items())
        )),
        ("digest", result.digest[:16]),
    ]
    rows += _serving_rows(result.snapshot)
    for tier, row in sorted(result.tier_table.items()):
        jpr = row["joules_per_request"]
        rows.append((
            f"  energy {tier}",
            "n/a" if jpr is None else f"{jpr:.3f} J/request "
            f"({row['active_joules_per_request'] * 1e3:.3f} mJ active)",
        ))
    print(format_table(
        ["metric", "value"],
        rows,
        title=f"repro sustained ({args.requests} open-loop arrivals "
              f"@ {args.rate}/s):",
    ))
    if args.json:
        import pathlib

        payload = {
            "spec": vars(args),
            "digest": result.digest,
            "schedule_digest": result.schedule_digest,
            "outcomes": result.outcomes,
            "tier_table": result.tier_table,
            "energy": result.energy,
            "model_seconds": result.model_seconds,
            "wall_seconds": result.wall_seconds,
            "violations": result.violations,
            "snapshot": result.snapshot,
        }
        pathlib.Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    if result.violations:
        print("VIOLATIONS: " + "; ".join(result.violations))
        if args.strict:
            return 1
    elif args.strict:
        print("strict checks passed: zero lost, exactly-once, tier-ordered "
              "shedding, per-tier latency within budget")
    return 0


def cmd_nn(args: argparse.Namespace) -> int:
    """Run one repro.nn model end-to-end with per-layer attribution."""
    import numpy as np

    from repro.config import SystemConfig
    from repro.host.platform import Platform
    from repro.nn.models import MODELS, sample_input
    from repro.runtime.api import OpenCtpu

    model = MODELS[args.model](seed=args.seed)
    x = sample_input(model, batch=args.batch, seed=args.seed)
    plan_cache = None
    if args.plan_cache:
        from repro.plan import PlanCache

        plan_cache = PlanCache()
    ctx = OpenCtpu(Platform(SystemConfig().with_tpus(args.tpus)),
                   plan_cache=plan_cache)
    out = model.forward(ctx, x, sync_per_layer=True)
    for _ in range(args.repeat - 1):
        # Warm passes rebind cached plans; the attribution below reports
        # the last pass, so `--repeat 2` shows warm-path latency.
        out = model.forward(ctx, x, sync_per_layer=True)
    rows = [
        (r["layer"], f"{r['wall_seconds'] * 1e3:.4f} ms",
         f"{r['device_seconds'] * 1e3:.4f} ms")
        for r in model.layer_reports
    ]
    total = sum(r["wall_seconds"] for r in model.layer_reports)
    rows.append(("total", f"{total * 1e3:.4f} ms", ""))
    print(
        format_table(
            ["layer", "wall (sim)", "device busy"],
            rows,
            title=f"{args.model} on {args.tpus} Edge TPU(s), "
                  f"input {'x'.join(map(str, x.shape))}:",
        )
    )
    print(f"\noutput shape: {out.shape}")
    if args.model == "lenet":
        probs = np.asarray(out)
        print(f"predicted classes: {probs.argmax(axis=1).tolist()}")
        print(f"row-sum drift: {np.abs(probs.sum(axis=1) - 1.0).max():.2e}")
    if plan_cache is not None:
        c = plan_cache.counters()
        print(f"plan cache: {int(c['entries'])} entries, "
              f"{int(c['binds'])} binds, {c['hit_rate'] * 100:.1f} % hit rate")
    return 0


def cmd_conformance(args: argparse.Namespace) -> int:
    """Run the differential/metamorphic/fuzz/fault conformance suites."""
    import json

    from repro.conformance import run_conformance
    from repro.conformance.runner import parse_suites

    try:
        suites = parse_suites(args.suite)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    report = run_conformance(
        suites=suites,
        seed=args.seed,
        fuzz_iterations=args.fuzz_iterations,
        workers=args.workers,
    )
    payload = report.as_dict()
    if args.json is not None:
        body = json.dumps(payload, indent=2, default=float) + "\n"
        if args.json:
            import pathlib

            pathlib.Path(args.json).write_text(body)
            print(f"wrote {args.json}")
        else:
            print(body, end="")
    if args.json is None or args.json:
        rows = []
        if "ops" in report.sections:
            ops = report.sections["ops"]
            worst = max(
                (c["rmse_percent"] for c in ops["cases"]), default=0.0
            )
            rows.append(("ops", f"{len(ops['cases'])} cases + "
                         f"{len(ops['metamorphic'])} properties, "
                         f"worst RMSE {worst:.3f} %"))
        if "apps" in report.sections:
            apps = report.sections["apps"]
            worst = max(
                (c["rmse_percent"] for c in apps["cases"]), default=0.0
            )
            rows.append(("apps", f"{len(apps['cases'])} apps, "
                         f"worst RMSE {worst:.3f} %"))
        if "format" in report.sections:
            fmt = report.sections["format"]
            rows.append(("format", f"{fmt['iterations']} mutations: "
                         f"{fmt['rejected']} rejected, "
                         f"{fmt['roundtripped']} round-tripped"))
        if "serve" in report.sections:
            serve = report.sections["serve"]
            rows.append(("serve", f"{len(serve['scenarios'])} scenarios, "
                         "all zero-lost" if serve["ok"] else "FAILED"))
        if "plans" in report.sections:
            plans = report.sections["plans"]
            rows.append(("plans",
                         f"{plans['ops_checked']} ops + {plans['apps_checked']} apps "
                         f"replay bit-identical, {plans['roundtrips']} byte-exact "
                         "round-trips" if plans["ok"] else "FAILED"))
        if "nn" in report.sections:
            nn = report.sections["nn"]
            rows.append(("nn",
                         f"{len(nn['cases'])} op cases + "
                         f"{len(nn['metamorphic'])} properties, "
                         f"{len(nn['models'])} models replay bit-identical"
                         if nn["ok"] else "FAILED"))
        if "integrity" in report.sections:
            integ = report.sections["integrity"]
            detected = sum(
                s["integrity_counters"]["sdc_detected"]
                for s in integ["scenarios"]
            )
            rows.append(("integrity",
                         f"{len(integ['scenarios'])} scenarios, "
                         f"{detected} corruptions caught"
                         if integ["ok"] else "FAILED"))
        rows.append(("seed", str(report.seed)))
        rows.append(("verdict", "PASS" if report.ok else "FAIL"))
        print(format_table(["suite", "result"], rows,
                           title="Conformance report:"))
    if not report.ok:
        for failure in report.failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Wrap any repro command with tracing on; export a Chrome trace."""
    from repro import telemetry

    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        raise SystemExit(
            "trace needs a command to wrap, e.g. `repro trace --out t.json -- loadgen`"
        )
    if rest[0] == "trace":
        raise SystemExit("trace cannot wrap itself")
    tracer = telemetry.SpanTracer(enabled=True)
    previous = telemetry.set_tracer(tracer)
    try:
        code = main(rest)
    finally:
        telemetry.set_tracer(previous)
    telemetry.save_chrome_trace(tracer, args.out)
    print(
        f"\nChrome trace ({len(tracer)} events) written to {args.out} — "
        "open it at https://ui.perfetto.dev"
    )
    print()
    print(format_attribution(tracer))
    if args.validate:
        problems = telemetry.validate_chrome_trace(args.out)
        if problems:
            for problem in problems:
                print(f"TRACE SCHEMA: {problem}", file=sys.stderr)
            return 1
        print("\ntrace schema: valid")
    return code


def cmd_table3(_args: argparse.Namespace) -> int:
    print(
        format_table(
            ["benchmark", "paper input", "paper size", "category", "baseline", "scaled down"],
            [
                (
                    spec.name,
                    spec.paper_matrices,
                    f"{spec.paper_gib:.2f} GiB",
                    spec.category,
                    spec.baseline,
                    f"{scale_factor(name):.0f}x",
                )
                for name, spec in sorted(TABLE3.items())
            ],
            title="Table 3: benchmark inputs (paper scale vs this reproduction):",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="GPTPU reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("characterize", help="measure Table 1 on the simulated device")

    run_p = sub.add_parser("run", help="run one application")
    run_p.add_argument("app", choices=sorted(APPLICATIONS))
    run_p.add_argument("--tpus", type=int, default=1, help="number of Edge TPUs")
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--param", action="append", default=[], metavar="K=V",
                       help="override a problem parameter (repeatable)")

    suite_p = sub.add_parser("suite", help="run all seven applications")
    suite_p.add_argument("--tpus", type=int, default=1)
    suite_p.add_argument("--seed", type=int, default=1)

    prof_p = sub.add_parser("profile", help="profile one application's timeline")
    prof_p.add_argument("app", choices=sorted(APPLICATIONS))
    prof_p.add_argument("--tpus", type=int, default=1)
    prof_p.add_argument("--seed", type=int, default=1)
    prof_p.add_argument("--param", action="append", default=[], metavar="K=V")
    prof_p.add_argument("--trace", metavar="FILE.json",
                        help="also export a Chrome trace JSON (simulated time)")
    prof_p.add_argument("--host-trace", metavar="FILE.json",
                        help="also export the host span trace (telemetry)")
    prof_p.add_argument("--plan-cache", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="run with the AOT compiled-plan cache and "
                             "surface its hit/miss/bind counters")

    report_p = sub.add_parser("report", help="bundle archived benchmark results")
    report_p.add_argument("--results-dir", default="benchmarks/results")
    report_p.add_argument("--output", metavar="FILE.md",
                          help="write to a file instead of stdout")

    def add_serving_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tpus", type=int, default=8)
        p.add_argument("--tenants", type=int, default=6)
        p.add_argument("--requests", type=int, default=8,
                       help="GEMM requests per tenant")
        p.add_argument("--size", type=int, default=128,
                       help="square GEMM size per request")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--fail-after", type=int, default=0, metavar="N",
                       help="kill one TPU after N instructions (0 = none)")
        p.add_argument("--fail-device", type=int, default=0,
                       help="index of the TPU to kill")
        p.add_argument("--fail-mode", default="fail-stop",
                       choices=["fail-stop", "bitflip", "stuck", "skew"],
                       help="injected fault mode: fail-stop raises; the "
                            "rest silently corrupt returned tiles")
        p.add_argument("--integrity", default="off",
                       choices=["off", "abft", "vote"],
                       help="SDC defense: abft checksum-verifies GEMM "
                            "tiles, vote dual-executes on a witness TPU")
        p.add_argument("--time-scale", type=float, default=0.0,
                       help="real seconds per modeled second (0 = free-run)")
        p.add_argument("--deadline", type=float, default=None, metavar="SEC",
                       help="per-request deadline in real seconds")
        p.add_argument("--plan-cache", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="AOT compiled-plan cache: lower each distinct "
                            "GEMM signature once, bind cached plans after")
        p.add_argument("--mix", default="gemm", choices=["gemm", "nn"],
                       help="request shape mix: shared-B GEMMs, or an NN "
                            "triple (conv2D_nn / attention-score GEMM / "
                            "softmax) per tenant")
        p.add_argument("--shard", default="auto", choices=["auto", "off"],
                       help="multi-TPU segmentation: auto splits any "
                            "request lowering to 2+ dispatch groups into "
                            "per-device segments, off keeps least-loaded "
                            "routing")
        p.add_argument("--workers", type=int, default=0, metavar="N",
                       help="shard the data plane across N worker "
                            "processes (shared-memory tile transport); "
                            "0 = single-process asyncio server")

    serve_p = sub.add_parser("serve", help="run a multi-tenant serving session")
    add_serving_args(serve_p)

    loadgen_p = sub.add_parser("loadgen", help="load-test the serving layer")
    add_serving_args(loadgen_p)
    loadgen_p.add_argument("--json", metavar="FILE.json",
                           help="write the metrics snapshot to a file")
    loadgen_p.add_argument("--strict", action="store_true",
                           help="exit non-zero unless serving invariants hold")

    sus_p = sub.add_parser(
        "sustained",
        help="open-loop sustained-load run: SLO tiers, shedding, energy",
    )
    sus_p.add_argument("--tpus", type=int, default=8)
    sus_p.add_argument("--requests", type=int, default=20_000,
                       help="total open-loop arrivals (bench uses 100k+)")
    sus_p.add_argument("--rate", type=float, default=40.0,
                       help="Poisson arrival rate in model requests/second")
    sus_p.add_argument("--seed", type=int, default=7)
    sus_p.add_argument("--burst", type=int, default=8,
                       help="arrivals submitted between scheduler grants")
    sus_p.add_argument("--ticks", type=int, default=2,
                       help="cooperative scheduler grants per burst "
                            "(the run's service-capacity model)")
    sus_p.add_argument("--tick-seconds", type=float, default=0.0,
                       help="real seconds per grant (give MP workers wall "
                            "time; 0 = pure virtual time)")
    sus_p.add_argument("--workers", type=int, default=0, metavar="N",
                       help="multi-process data plane with N workers")
    sus_p.add_argument("--fail-after", type=int, default=0, metavar="INSTRS",
                       help="fail-stop churn: kill one device after N "
                            "instructions")
    sus_p.add_argument("--sdc-after", type=int, default=0, metavar="INSTRS",
                       help="SDC churn: corrupt one device's tiles after N "
                            "instructions (pair with --integrity abft)")
    sus_p.add_argument("--integrity", default="off",
                       choices=["off", "abft", "vote"])
    sus_p.add_argument("--shard", default="off", choices=["auto", "off"])
    sus_p.add_argument("--energy-aware", action="store_true",
                       help="energy-aware shard placement inside deadline "
                            "slack")
    sus_p.add_argument("--json", metavar="FILE.json",
                       help="write the sustained report to a file")
    sus_p.add_argument("--strict", action="store_true",
                       help="exit non-zero on any invariant violation")

    nn_p = sub.add_parser(
        "nn", help="run one repro.nn model with per-layer attribution"
    )
    nn_p.add_argument("--model", default="lenet",
                      choices=["lenet", "attention"])
    nn_p.add_argument("--tpus", type=int, default=8)
    nn_p.add_argument("--seed", type=int, default=0)
    nn_p.add_argument("--batch", type=int, default=2,
                      help="batch size (image models only)")
    nn_p.add_argument("--repeat", type=int, default=1,
                      help="forward passes; >1 reports the warm-cache pass")
    nn_p.add_argument("--plan-cache", action=argparse.BooleanOptionalAction,
                      default=True,
                      help="AOT compiled-plan cache across layers and passes")

    conf_p = sub.add_parser(
        "conformance",
        help="run the differential/metamorphic/fuzz/fault conformance suites",
    )
    conf_p.add_argument("--suite", default="ops,apps,format,serve",
                        help="comma-separated subset of "
                             "ops,apps,format,serve,integrity,plans,nn,shard")
    conf_p.add_argument("--seed", type=int, default=0,
                        help="campaign seed; the JSON report records it and "
                             "reproduces every case exactly")
    conf_p.add_argument("--json", nargs="?", const="", metavar="FILE.json",
                        help="emit the JSON report (to FILE, or stdout "
                             "when no file is given)")
    conf_p.add_argument("--fuzz-iterations", type=int, default=400,
                        help="model-format mutations per fuzz run")
    conf_p.add_argument("--workers", type=int, default=0, metavar="N",
                        help="run the serve/shard suites against the "
                             "multi-process server with N workers "
                             "(0 = in-process asyncio server)")

    trace_p = sub.add_parser(
        "trace", help="run another repro command with span tracing on"
    )
    trace_p.add_argument("--out", default="trace.json", metavar="FILE.json",
                         help="Chrome-trace output path (default trace.json)")
    trace_p.add_argument("--validate", action="store_true",
                         help="schema-check the emitted trace; non-zero on problems")
    trace_p.add_argument("rest", nargs=argparse.REMAINDER, metavar="CMD ...",
                         help="the repro command to wrap (prefix with --)")

    sub.add_parser("table3", help="print the dataset inventory")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "characterize": cmd_characterize,
        "run": cmd_run,
        "suite": cmd_suite,
        "profile": cmd_profile,
        "report": cmd_report,
        "serve": cmd_serve,
        "loadgen": cmd_loadgen,
        "sustained": cmd_sustained,
        "nn": cmd_nn,
        "conformance": cmd_conformance,
        "trace": cmd_trace,
        "table3": cmd_table3,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
