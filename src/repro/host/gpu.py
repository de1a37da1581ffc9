"""Comparison-GPU cost models (paper §9.4, Table 6, Fig. 9).

The paper compares GPTPU against an RTX 2080 (Turing, 16-bit ALUs and
8-bit Tensor Cores enabled where applicable) and a Jetson Nano.  We have
neither, so each is an analytic model: per-application speedup factors
over one Ryzen core, read off the paper's Fig. 9(a) bars where labeled
and otherwise distributed around the published means (364× for the
RTX 2080, 1.15× for the Jetson Nano).  The factors are *inputs* taken
from the paper, not results — Fig. 9 benches exist to verify that our
GPTPU-side numbers land in the right position relative to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.config import GPUConfig, JETSON_NANO, RTX_2080

#: Per-application speedups over a single Ryzen core for the RTX 2080.
#: GEMM uses cuBLAS with 8-bit Tensor Cores; Gaussian/HotSpot3D/Backprop
#: use 16-bit ALUs (§9.4).  Values estimated from Fig. 9(a); their
#: arithmetic mean reproduces the published 364×.
RTX_2080_APP_SPEEDUPS: Mapping[str, float] = MappingProxyType(
    {
        "blackscholes": 220.0,
        "gaussian": 160.0,
        "gemm": 1150.0,
        "hotspot3d": 290.0,
        "lud": 210.0,
        "pagerank": 130.0,
        "backprop": 388.0,
    }
)

#: Per-application speedups for the Jetson Nano (mean ≈ 1.15×, §9.4).
JETSON_NANO_APP_SPEEDUPS: Mapping[str, float] = MappingProxyType(
    {
        "blackscholes": 1.6,
        "gaussian": 0.7,
        "gemm": 2.4,
        "hotspot3d": 1.3,
        "lud": 0.6,
        "pagerank": 0.45,
        "backprop": 1.0,
    }
)


@dataclass(frozen=True)
class GPUModel:
    """Wall-time and power model for one comparison GPU."""

    config: GPUConfig
    app_speedups: Mapping[str, float] = field(default_factory=dict)

    def speedup(self, app: str) -> float:
        """Speedup over one Ryzen core for *app* (mean if unknown)."""
        return self.app_speedups.get(app.lower(), self.config.mean_speedup_vs_cpu_core)

    def app_seconds(self, app: str, cpu_core_seconds: float) -> float:
        """GPU wall time for an app whose 1-core CPU time is known."""
        if cpu_core_seconds < 0:
            raise ValueError("negative duration")
        return cpu_core_seconds / self.speedup(app)


#: Ready-made models for the two paper GPUs.
RTX_2080_MODEL = GPUModel(RTX_2080, RTX_2080_APP_SPEEDUPS)
JETSON_NANO_MODEL = GPUModel(JETSON_NANO, JETSON_NANO_APP_SPEEDUPS)
