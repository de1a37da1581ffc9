"""Experiment harness: run applications across platform configurations.

One :func:`run_app` call produces everything the figure benchmarks need:
the exact CPU baseline (value + single-core seconds), the GPTPU run
(value, wall, energy), and accuracy metrics between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.apps import APPLICATIONS, GPTPUResult, all_applications
from repro.config import SystemConfig
from repro.errors import BenchmarkError
from repro.host.energy import EnergyModel, EnergyReport
from repro.host.platform import Platform
from repro.metrics import mape_percent, rmse_percent
from repro.runtime.api import OpenCtpu
from repro.runtime.opqueue import QuantMode
from repro.runtime.scheduler import SchedulePolicy
from repro.runtime.tensorizer import TensorizerOptions


@dataclass(frozen=True)
class AppRunRecord:
    """Everything measured about one application run."""

    name: str
    num_tpus: int
    cpu_seconds: float
    cpu_energy: EnergyReport
    gptpu: GPTPUResult
    mape_percent: float
    rmse_percent: float

    @property
    def speedup(self) -> float:
        """1-core CPU time over GPTPU wall time."""
        return self.cpu_seconds / self.gptpu.wall_seconds

    @property
    def energy_ratio(self) -> float:
        """GPTPU total energy relative to the CPU baseline's."""
        return self.gptpu.energy.total_joules / self.cpu_energy.total_joules

    @property
    def edp_ratio(self) -> float:
        """GPTPU energy-delay product relative to the CPU baseline's."""
        return self.gptpu.energy_delay_product / self.cpu_energy.energy_delay_product


def run_app(
    name: str,
    num_tpus: int = 1,
    seed: int = 1,
    params: Optional[Mapping[str, int]] = None,
    config: Optional[SystemConfig] = None,
    options: Optional[TensorizerOptions] = None,
    policy: Optional[SchedulePolicy] = None,
    quant: QuantMode = QuantMode.SCALE,
) -> AppRunRecord:
    """Run one Table 3 application on CPU and on a fresh GPTPU platform."""
    if name not in APPLICATIONS:
        raise BenchmarkError(f"unknown application {name!r}; known: {sorted(APPLICATIONS)}")
    app = all_applications()[name]
    run_params = dict(app.default_params())
    run_params.update(params or {})
    inputs = app.generate(seed=seed, **run_params)

    system = (config or SystemConfig()).with_tpus(num_tpus)
    platform = Platform(system)
    ctx = OpenCtpu(platform, options=options, policy=policy, quant=quant)

    cpu_res = app.run_cpu(inputs, platform.cpu)
    # CPU baseline energy: one loaded core for the whole run (§8.1).
    cpu_energy = EnergyModel(system).report(cpu_res.seconds, {"cpu-core": cpu_res.seconds})
    gptpu_res = app.run_gptpu(inputs, ctx)

    return AppRunRecord(
        name=name,
        num_tpus=num_tpus,
        cpu_seconds=cpu_res.seconds,
        cpu_energy=cpu_energy,
        gptpu=gptpu_res,
        mape_percent=mape_percent(gptpu_res.value, cpu_res.value),
        rmse_percent=rmse_percent(gptpu_res.value, cpu_res.value),
    )


def run_suite(
    num_tpus: int = 1,
    seed: int = 1,
    params_by_app: Optional[Mapping[str, Mapping[str, int]]] = None,
    config: Optional[SystemConfig] = None,
    **kwargs,
) -> Dict[str, AppRunRecord]:
    """Run every application; returns records keyed by app name."""
    params_by_app = params_by_app or {}
    return {
        name: run_app(
            name,
            num_tpus=num_tpus,
            seed=seed,
            params=params_by_app.get(name),
            config=config,
            **kwargs,
        )
        for name in sorted(APPLICATIONS)
    }


def mean_speedup(records: Mapping[str, AppRunRecord]) -> float:
    """Arithmetic-mean speedup across a suite (the paper's headline)."""
    return float(np.mean([r.speedup for r in records.values()]))
