"""Sustained open-loop serving — SLO tiers, shedding, and the §8 energy frontier.

ROADMAP item 1's north star is "sustained throughput for millions of
users"; the paper's §8 frames the pool's value in energy per unit of
work, not burst speed.  This benchmark drives :mod:`repro.serve` the way
a long-lived service is driven: a seeded **open-loop** Poisson arrival
process (arrivals fire on schedule whether or not earlier requests
finished, so queues genuinely build) over a heavy-tailed lognormal
request-shape mix, 10⁵ requests compressing ~40 model-minutes into one
run — with fail-stop *and* silent-data-corruption churn armed underneath
the whole time.

Phases, each asserted and archived in ``BENCH_sustained.json``:

* **sustained** — 10⁵ requests at a sustainable rate on the asyncio
  server with a TPU dying mid-run and an SDC burst caught by ABFT:
  zero lost, exactly-once from the delivery event log, gold p99/p99.9
  inside its SLO budget, per-tier joules-per-request table.
* **replica** — the same spec re-run from the seed must reproduce the
  sustained phase's digest **bit for bit** (schedule fingerprint +
  per-arrival outcome codes).
* **overload** — 4x the sustainable rate: the admission governor sheds
  strictly lowest-tier-first (bronze before silver, gold never) with
  hysteresis, and the run still holds zero-lost/exactly-once.
* **multiprocess** — the same open-loop harness against the
  ``--workers`` MP server with fail-stop churn: invariants hold across
  process boundaries (no bit-for-bit claim; its ordering is real).
* **energy frontier** — shardable GEMMs with deadline slack: the
  energy-aware planner converts headroom into fewer active devices,
  measurably cutting active joules per request versus the min-makespan
  baseline (§8.1's latency-for-energy trade).
"""

import dataclasses
import json
import pathlib

from repro.bench import format_table
from repro.loadgen import SustainedSpec, run_sustained

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_sustained.json"

#: The flagship run: 10⁵ requests, both churn injectors armed, ABFT on.
SUSTAINED = SustainedSpec(
    requests=100_000,
    rate=60.0,
    seed=7,
    burst=8,
    ticks=4,
    fail_after_instructions=5_000,
    fail_device=1,
    sdc_after_instructions=9_000,
    sdc_failures=4,
    sdc_device=2,
    integrity="abft",
)

OVERLOAD = dataclasses.replace(
    SUSTAINED, requests=10_000, rate=400.0, burst=32, ticks=1
)

MP = dataclasses.replace(
    SUSTAINED,
    requests=4_000,
    workers=2,
    tpus=4,
    rate=30.0,
    burst=4,
    ticks=2,
    tick_seconds=0.002,
    sdc_after_instructions=0,
    integrity="off",
)

ENERGY_BASE = SustainedSpec(
    requests=600,
    rate=20.0,
    seed=7,
    burst=8,
    ticks=6,
    size_median=192.0,
    gemm_chunks=8,
    shard="auto",
)


def _phase_payload(result):
    return {
        "digest": result.digest,
        "schedule_digest": result.schedule_digest,
        "outcomes": result.outcomes,
        "tiers": result.tier_table,
        "energy": result.energy,
        "violations": result.violations,
        "overload": result.snapshot.get("overload"),
        "latency": result.snapshot["latency"],
        "model_seconds": result.model_seconds,
        "wall_seconds": result.wall_seconds,
    }


def _tier_rows(result):
    rows = []
    for name in ("gold", "silver", "bronze"):
        row = result.tier_table[name]
        p99 = row["p99_seconds"]
        jpr = row["joules_per_request"]
        rows.append((
            f"  {name}",
            (f"ok {row['completed']}/{row['submitted']}, shed {row['shed']}"
             + (f", p99 {p99 * 1e3:.1f} ms" if p99 is not None else "")
             + (f", {jpr:.3f} J/req" if jpr is not None else "")),
        ))
    return rows


def test_sustained_open_loop_serving(benchmark, report):
    result = benchmark.pedantic(
        lambda: run_sustained(SUSTAINED), rounds=1, iterations=1
    )
    replica = run_sustained(SUSTAINED)
    overload = run_sustained(OVERLOAD)
    mp = run_sustained(MP)
    frugal = run_sustained(
        dataclasses.replace(ENERGY_BASE, energy_aware=True)
    )
    hasty = run_sustained(ENERGY_BASE)

    payload = {
        "spec": dataclasses.asdict(SUSTAINED),
        "sustained": _phase_payload(result),
        "replica_digest": replica.digest,
        "overload": _phase_payload(overload),
        "multiprocess": _phase_payload(mp),
        "energy_frontier": {
            "min_makespan": _phase_payload(hasty),
            "energy_aware": _phase_payload(frugal),
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    outcomes = result.snapshot["outcomes"]
    governor = overload.snapshot["overload"]
    active_cut = 1.0 - (
        frugal.energy["active_joules"] / hasty.energy["active_joules"]
    )
    report(format_table(
        ["metric", "value"],
        [
            ("open-loop requests", f"{SUSTAINED.requests} @ {SUSTAINED.rate}/s"),
            ("model time compressed", f"{result.model_seconds / 60:.1f} min"),
            ("wall time", f"{result.wall_seconds:.1f} s"),
            ("outcome codes", str(result.outcomes)),
            ("lost / duplicated", f"{outcomes['lost']} / 0 (event log)"),
            ("digest (replica match)",
             f"{result.digest[:16]}… ({result.digest == replica.digest})"),
            *_tier_rows(result),
            ("overload phase", f"{OVERLOAD.requests} @ {OVERLOAD.rate}/s"),
            ("  sheds g/s/b",
             f"{overload.tier_table['gold']['shed']}"
             f"/{overload.tier_table['silver']['shed']}"
             f"/{overload.tier_table['bronze']['shed']}"),
            ("  governor", f"level {governor['level']}, "
             f"{governor['escalations']} escalations"),
            ("MP phase (--workers 2)", str(mp.outcomes)),
            ("energy-aware active-joule cut", f"{active_cut:.1%}"),
            ("energy plans chosen", str(frugal.energy["energy_plans"])),
        ],
        title="Sustained open-loop serving (BENCH_sustained.json):",
    ))

    # The flagship run is invariant-clean under churn: zero lost,
    # exactly-once from the event log, sheds orderly, gold inside its
    # p99/p99.9 budgets (all folded into the violations audit).
    assert result.violations == []
    assert outcomes["lost"] == 0
    assert result.snapshot["device_failures"] >= 1  # fail-stop surfaced
    assert result.snapshot["integrity"]["sdc_detected"] >= 1  # SDC caught
    # Bit-for-bit reproducible from the seed.
    assert replica.digest == result.digest
    assert replica.outcomes == result.outcomes
    # Every tier has a joules-per-request figure.
    for row in result.tier_table.values():
        assert row["joules_per_request"] is not None

    # Overload: sheds strictly lowest-tier-first, gold untouched.
    assert overload.violations == []
    assert overload.tier_table["bronze"]["shed"] > 0
    assert overload.tier_table["gold"]["shed"] == 0
    assert governor["escalations"] >= 1

    # MP server: same invariants across process boundaries.
    assert mp.violations == []
    assert mp.snapshot["outcomes"]["lost"] == 0

    # Energy frontier: slack converts to measurably fewer active joules.
    assert frugal.violations == [] and hasty.violations == []
    assert frugal.energy["energy_plans"] > 0
    assert frugal.energy["active_joules"] < hasty.energy["active_joules"]
