"""The ``nn`` conformance suite: NN ops, whole models, plan replay.

Three checks compose the suite:

* **ops** — the three-oracle differential run restricted to the NN
  extension catalog (:data:`repro.conformance.cases.NN_OP_CASES`), plus
  the NN metamorphic properties (im2col-vs-direct equivalence, pooling
  translation covariance);
* **models** — LeNet and the attention block end-to-end on an 8-TPU
  pool: the per-tile reference rendering and the full production
  pipeline must agree bit-for-bit, classifier probabilities must be
  valid (non-negative rows summing to ~1), and outputs must be finite;
* **replay** — a second inference through the same warm
  :class:`~repro.plan.cache.PlanCache` must reproduce the first run's
  bytes exactly and actually bind from the cache (binds > 0), proving
  the conv/pool/softmax lowerings capture and replay through the AOT
  plan path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.config import SystemConfig
from repro.conformance.cases import NN_OP_CASES
from repro.conformance.metamorphic import NN_PROPERTIES
from repro.conformance.oracles import derive_rng, run_oracles
from repro.conformance.reference import reference_runtime
from repro.host.platform import Platform
from repro.metrics.errors import bound_for_op
from repro.nn.models import MODELS, sample_input
from repro.plan.cache import PlanCache
from repro.runtime.api import OpenCtpu

#: Pool size the model checks run on (the paper's prototype has 8).
MODEL_TPUS = 8


@dataclass
class NNReport:
    """Aggregate outcome of one ``nn`` suite run."""

    cases: List[dict] = field(default_factory=list)
    metamorphic: List[dict] = field(default_factory=list)
    models: List[dict] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "cases": list(self.cases),
            "metamorphic": list(self.metamorphic),
            "models": list(self.models),
            "violations": list(self.violations),
            "ok": self.ok,
        }


def _drain(ctx: OpenCtpu) -> None:
    if ctx.pending_operations:
        ctx.sync()


def _check_model(name: str, seed: int, report: NNReport) -> None:
    model_seed = int(derive_rng(seed, "nn", name).integers(0, 2**31))
    model = MODELS[name](seed=model_seed)
    x = sample_input(model, batch=2, seed=model_seed)

    scalar_ctx = reference_runtime(Platform(SystemConfig().with_tpus(MODEL_TPUS)))
    out_scalar = model.forward(scalar_ctx, x)
    _drain(scalar_ctx)

    cache = PlanCache()
    pipe_ctx = OpenCtpu(
        Platform(SystemConfig().with_tpus(MODEL_TPUS)), plan_cache=cache
    )
    out_cold = model.forward(pipe_ctx, x)
    _drain(pipe_ctx)
    cold_binds = cache.binds
    out_warm = model.forward(pipe_ctx, x)
    _drain(pipe_ctx)

    entry: Dict[str, object] = {
        "model": name,
        "model_seed": model_seed,
        "output_shape": list(out_cold.shape),
        "plan_entries": len(cache),
        "warm_binds": cache.binds - cold_binds,
    }
    if out_scalar.shape != out_cold.shape or out_scalar.tobytes() != out_cold.tobytes():
        report.violations.append(
            f"nn: {name} reference and pipeline inferences are not bit-identical"
        )
    if out_cold.tobytes() != out_warm.tobytes():
        report.violations.append(
            f"nn: {name} warm plan-cache replay changed the inference bytes"
        )
    if cache.binds - cold_binds <= 0:
        report.violations.append(
            f"nn: {name} warm inference never bound a cached plan"
        )
    if not np.all(np.isfinite(out_cold)):
        report.violations.append(f"nn: {name} produced non-finite outputs")
    if name == "lenet":
        row_sums = out_cold.sum(axis=1)
        entry["prob_row_sum_err"] = float(np.abs(row_sums - 1.0).max())
        if np.any(out_cold < 0.0) or float(np.abs(row_sums - 1.0).max()) > 0.05:
            report.violations.append(
                f"nn: {name} classifier head is not a probability distribution"
            )
    report.models.append(entry)


def run_nn(seed: int) -> NNReport:
    """Run the full ``nn`` suite for one seed."""
    report = NNReport()
    for case in NN_OP_CASES:
        data = case.build(derive_rng(seed, "ops", case.name))
        bound = bound_for_op(case.family)
        outcome = run_oracles(
            lambda ctx: case.invoke(ctx, data), case.reference(data), bound
        )
        report.cases.append(
            {
                "name": case.name,
                "family": case.family,
                "bit_identical": outcome.bit_identical,
                "instructions": outcome.instructions,
                **outcome.check.as_dict(),
            }
        )
        if not outcome.bit_identical:
            report.violations.append(
                f"nn: {case.name} int8 paths are not bit-identical"
            )
        for violation in outcome.check.violations():
            report.violations.append(f"nn: {case.name} {violation}")
    for prop in NN_PROPERTIES:
        result = prop(seed)
        report.metamorphic.append(result.as_dict())
        if not result.ok:
            report.violations.append(f"nn: metamorphic {result.name} failed")
    for name in sorted(MODELS):
        _check_model(name, seed, report)
    return report
