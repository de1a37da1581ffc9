"""Analytic cost model for one Ryzen 3700X core (paper §3.1, §8).

Baseline applications execute their real math in NumPy; this model
assigns the *simulated* wall time the same computation takes on the
paper's CPU.  Rates live in :class:`repro.config.CPUConfig` and are
calibrated per DESIGN.md §4.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import CPUConfig


def openmp_speedup(ncores: int, config: CPUConfig | None = None) -> float:
    """Multicore speedup of the OpenMP baselines.

    The paper's 8-core OpenMP implementations reach only 2.70× over one
    core (Fig. 8a) — memory-bandwidth-bound scaling.  We model it with a
    serialization fraction β fitted through that point:

        speedup(n) = n / (1 + β (n - 1)),  β s.t. speedup(8) = 2.70
    """
    config = config or CPUConfig()
    if ncores < 1:
        raise ValueError(f"need at least one core, got {ncores}")
    target = config.openmp_8core_speedup
    beta = (8.0 / target - 1.0) / 7.0
    return ncores / (1.0 + beta * (ncores - 1))


@dataclass(frozen=True)
class CPUCoreModel:
    """Per-kernel wall-time model for a single core."""

    config: CPUConfig = CPUConfig()

    def gemm_seconds(self, m: int, n: int, k: int) -> float:
        """Dense single-precision GEMM via OpenBLAS: 2·m·n·k flops."""
        self._check(m, n, k)
        return 2.0 * m * n * k / self.config.sgemm_flops

    def graph_traversal_seconds(self, edges: int) -> float:
        """Edge-at-a-time graph kernel (PageRank baseline)."""
        self._check(edges)
        return edges / self.config.graph_edges_per_sec

    def stream_seconds(self, nbytes: int) -> float:
        """Streaming elementwise kernel touching *nbytes* of memory."""
        self._check(nbytes)
        return nbytes / self.config.stream_bytes_per_sec

    def elementwise_seconds(self, elems: int, bytes_per_elem: int = 12) -> float:
        """Pairwise a⊕b→c over float32 arrays (two reads + one write)."""
        self._check(elems)
        return elems * bytes_per_elem / self.config.stream_bytes_per_sec

    def stencil_seconds(self, point_updates: int) -> float:
        """Weighted-neighbor stencil sweep (HotSpot3D-style)."""
        self._check(point_updates)
        return point_updates / self.config.stencil_updates_per_sec

    def scalar_seconds(self, ops: int) -> float:
        """Branchy scalar work (row reductions, pivoting)."""
        self._check(ops)
        return ops / self.config.scalar_flops

    def transcendental_seconds(self, evals: int) -> float:
        """exp/log/sqrt-heavy evaluations (Black-Scholes CNDF)."""
        self._check(evals)
        return evals / self.config.transcendental_evals_per_sec

    def aggregate_seconds(self, elems: int) -> float:
        """Host-side aggregation of device partial results (§6.2.1:
        "requires very short latency to execute on modern processors")."""
        self._check(elems)
        return elems * 8 / self.config.stream_bytes_per_sec

    def parallel_seconds(self, single_core_seconds: float, ncores: int) -> float:
        """Wall time of the OpenMP version on *ncores* cores."""
        if single_core_seconds < 0:
            raise ValueError("negative duration")
        return single_core_seconds / openmp_speedup(ncores, self.config)

    @staticmethod
    def _check(*values: int) -> None:
        for v in values:
            if v < 0:
                raise ValueError(f"negative work amount {v}")
