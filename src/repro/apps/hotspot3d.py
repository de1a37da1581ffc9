"""HotSpot3D thermal simulation (paper §7.2.2, Table 3: 8×8K×8K, Physics).

Models the temperature of a 3D-stacked chip: each grid point relaxes
toward the weighted average of its in-plane neighbors (a 3×3 stencil),
its vertical neighbors, and the local power dissipation.

The GPTPU implementation "naturally map[s] to conv2d with a 3x3 kernel
without striding" for the in-plane part; the thin vertical coupling and
power injection stay on the host CPU (§6.2.1's aggregation pattern),
charged through ``host_compute``.  Data movement dominates — the paper's
smallest speedup (1.14×) — because every layer crosses PCIe twice per
iteration.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro import parallel
from repro.apps.base import Application, CPUResult, GPTPUResult
from repro.host.cpu import CPUCoreModel
from repro.ops.conv import tpu_stencil2d
from repro.runtime.api import OpenCtpu

#: In-plane relaxation stencil (center keeps most weight).
STENCIL = np.array(
    [
        [0.025, 0.0500, 0.025],
        [0.050, 0.6500, 0.050],
        [0.025, 0.0500, 0.025],
    ]
)
#: Vertical coupling coefficient per neighbor layer.
CZ = 0.05
#: Power-injection step.
DT = 0.5


def _pad_edge(layer: np.ndarray) -> np.ndarray:
    """Replicate-pad by one cell so the valid conv keeps the grid size."""
    return np.pad(layer, 1, mode="edge")


def _z_term(temps: np.ndarray, z: int) -> np.ndarray:
    layers = temps.shape[0]
    above = temps[z + 1] if z + 1 < layers else temps[z]
    below = temps[z - 1] if z - 1 >= 0 else temps[z]
    return CZ * (above + below - 2.0 * temps[z])


def _shifted_layers(temps: np.ndarray) -> List[Tuple[float, np.ndarray]]:
    """Each layer's mean μ and its edge-padded plane ``T − μ``.

    Mean-shift before quantizing: temperatures sit in a narrow band
    around a large offset, and the stencil is affine — conv(T) =
    conv(T−μ) + μ·Σk — so the device only sees the ±deviation range
    (§6.2.2 calibration).  Layers split over the host threads, each
    taken whole.
    """

    def layers(z0: int, z1: int) -> List[Tuple[float, np.ndarray]]:
        out = []
        for z in range(z0, z1):
            mu = float(temps[z].mean())
            out.append((mu, _pad_edge(temps[z] - mu)))
        return out

    ranges = parallel.row_ranges(len(temps), 4 * temps.size)
    return [layer for part in parallel.split_rows(layers, ranges) for layer in part]


def _coupled(
    temps: np.ndarray, power: np.ndarray, planes: List[np.ndarray], shifts: List[float]
) -> np.ndarray:
    """The next temperatures: per layer, ``plane + μ·Σk + z-term +
    DT·power`` summed in that order, the stacked layers' rows split over
    the host threads."""
    n = temps.shape[1]

    def rows(r0: int, r1: int, out: np.ndarray) -> None:
        for z in range(r0 // n, (r1 - 1) // n + 1):
            y0, y1 = max(r0 - z * n, 0), min(r1 - z * n, n)
            o = out[z * n + y0 - r0 : z * n + y1 - r0]
            np.add(planes[z][y0:y1], shifts[z], out=o)
            o += _z_term(temps[:, y0:y1], z)
            o += DT * power[z, y0:y1]

    new = np.empty_like(temps)
    parallel.fill_rows(new.reshape(len(temps) * n, n), rows, 8 * temps.size)
    return new


class HotSpot3DApp(Application):
    """Iterative 2.5-D thermal relaxation."""

    name = "hotspot3d"
    category = "Physics Simulation"
    paper_input = "8 x 8K x 8K (2 GB)"

    def default_params(self) -> Dict[str, int]:
        return {"n": 512, "layers": 4, "iterations": 4}

    def generate(self, seed: int = 0, **params: int) -> Dict[str, np.ndarray]:
        n = params.get("n", 512)
        layers = params.get("layers", 4)
        rng = np.random.default_rng(seed)
        temps = rng.uniform(40.0, 80.0, (layers, n, n))
        power = rng.uniform(0.0, 4.0, (layers, n, n))
        return {
            "temps": temps,
            "power": power,
            "iterations": np.array(params.get("iterations", 4)),
        }

    def _step_cpu(self, temps: np.ndarray, power: np.ndarray) -> np.ndarray:
        from scipy.signal import correlate2d

        out = np.empty_like(temps)
        for z in range(temps.shape[0]):
            plane = correlate2d(_pad_edge(temps[z]), STENCIL, mode="valid")
            out[z] = plane + _z_term(temps, z) + DT * power[z]
        return out

    def run_cpu(self, inputs: Dict[str, np.ndarray], cpu: CPUCoreModel) -> CPUResult:
        temps = inputs["temps"].copy()
        power = inputs["power"]
        iterations = int(inputs["iterations"])
        for _ in range(iterations):
            temps = self._step_cpu(temps, power)
        points = temps.size * iterations
        return CPUResult(value=temps, seconds=cpu.stencil_seconds(points))

    def run_gptpu(self, inputs: Dict[str, np.ndarray], ctx: OpenCtpu) -> GPTPUResult:
        temps = inputs["temps"].copy()
        power = inputs["power"]
        iterations = int(inputs["iterations"])
        cpu = ctx.platform.cpu
        reports = []
        stencil_gain = float(STENCIL.sum())
        for _ in range(iterations):
            planes, shifts = [], []
            for mu, padded in _shifted_layers(temps):
                planes.append(tpu_stencil2d(ctx, padded, STENCIL, model_name="hotspot-k"))
                shifts.append(mu * stencil_gain)
            # Vertical coupling + power injection stay on the host.
            temps = _coupled(temps, power, planes, shifts)
            ctx.host_compute(
                cpu.stream_seconds(temps.size * 8 * 3), label="z-coupling"
            )
            reports.append(ctx.sync())  # iterations serialize
        return self._collect(ctx, temps, reports)
