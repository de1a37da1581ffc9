"""Gaussian elimination (paper §7.2.4, Table 3: 4K×4K, Linear Algebra).

Reduces [A | b] to upper-triangular form and back-substitutes.  "For
Gaussian, GPTPU uses mul to perform each row reduction": the pivot-row
normalizations are pairwise ``mul`` instructions against broadcast
reciprocal pivots, and the trailing update — the O(n³) bulk of the row
reductions — runs as conv2D GEMM per block step (blocked elimination,
the BLAS-3 formulation of the same arithmetic), with the subtraction
folded into the host aggregation of the partials (§6.2.1).

The exact identity used per block (D = diag(U11)):

    A22 − L21·U12 = A22 − (L21·D) · (D⁻¹·U12)

where both ``L21·D`` and ``D⁻¹·U12`` are pairwise products with a
broadcast diagonal — the two on-device ``mul`` ops.

Inputs are diagonally dominant so elimination without pivoting is
stable, matching the no-pivot structure of the Rodinia kernel.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.apps.base import Application, CPUResult, GPTPUResult
from repro.apps.lud import make_dd_matrix, packed_lu_cpu
from repro.host.cpu import CPUCoreModel
from repro.ops.elementwise import tpu_mul
from repro.ops.gemm import tpu_gemm
from repro.runtime.api import OpenCtpu


class GaussianApp(Application):
    """Blocked Gaussian elimination + back-substitution."""

    name = "gaussian"
    category = "Linear Algebra"
    paper_input = "1 x 4K x 4K (64 MB)"

    def __init__(self, block: int = 128) -> None:
        self.block = block

    def default_params(self) -> Dict[str, int]:
        return {"n": 1024}

    def generate(self, seed: int = 0, **params: int) -> Dict[str, np.ndarray]:
        n = params.get("n", 256)
        rng = np.random.default_rng(seed + 1)
        return {"a": make_dd_matrix(n, seed), "b": rng.uniform(0.0, 1.0, n)}

    def run_cpu(self, inputs: Dict[str, np.ndarray], cpu: CPUCoreModel) -> CPUResult:
        from scipy.linalg import solve_triangular  # scipy loads on first use

        a = inputs["a"].copy()
        b = inputs["b"].copy()
        n = a.shape[0]
        for k in range(n - 1):
            factors = a[k + 1 :, k] / a[k, k]
            a[k + 1 :, k:] -= np.outer(factors, a[k, k:])
            b[k + 1 :] -= factors * b[k]
        x = solve_triangular(a, b)
        # Rodinia's gaussian is a hand-written triple loop over the
        # trailing matrix: (2/3)n³ multiply-adds at the naive rate.
        seconds = (2.0 / 3.0) * n**3 * 2.0 / cpu.config.naive_gemm_flops
        return CPUResult(value=x, seconds=seconds)

    def run_gptpu(self, inputs: Dict[str, np.ndarray], ctx: OpenCtpu) -> GPTPUResult:
        from scipy.linalg import solve_triangular  # scipy loads on first use

        a = np.asarray(inputs["a"], dtype=np.float64).copy()
        rhs = np.asarray(inputs["b"], dtype=np.float64).copy()
        n = a.shape[0]
        blk = self.block
        cpu = ctx.platform.cpu
        reports = []
        for k0 in range(0, n, blk):
            k1 = min(k0 + blk, n)
            b = k1 - k0
            # Host: factor the panel and solve the two triangular systems
            # (small, sequential, latency-bound — kept on the CPU as the
            # paper's implementations do for control-heavy pieces).
            lu_panel = packed_lu_cpu(a[k0:k1, k0:k1])
            l11 = np.tril(lu_panel, -1) + np.eye(b)
            u11 = np.triu(lu_panel)
            ctx.host_compute(cpu.scalar_seconds(max(1, 2 * b**3 // 3)), label="panel-lu")
            a[k0:k1, k0:k1] = lu_panel
            u12 = solve_triangular(l11, a[k0:k1, k1:], lower=True, unit_diagonal=True)
            a[k0:k1, k1:] = u12
            rhs[k0:k1] = solve_triangular(l11, rhs[k0:k1], lower=True, unit_diagonal=True)
            if k1 >= n:
                break
            l21 = solve_triangular(u11.T, a[k1:, k0:k1].T, lower=True).T
            ctx.host_compute(
                cpu.scalar_seconds(max(1, b * b * (n - k1) * 2)), label="trsm"
            )
            a[k1:, k0:k1] = l21

            # Device: the paper's mul-based row reductions.
            diag = np.diag(u11)
            u12_norm = tpu_mul(ctx, u12, np.broadcast_to(1.0 / diag[:, None], u12.shape))
            l21_scaled = tpu_mul(ctx, l21, np.broadcast_to(diag[None, :], l21.shape))
            prod = tpu_gemm(ctx, l21_scaled, u12_norm, method="conv2d")
            # The subtraction fuses into the GEMM's CPU aggregation pass
            # (one extra subtract while the partials are being written),
            # so it adds no separate host phase.
            a[k1:, k1:] -= prod
            rhs[k1:] -= l21 @ rhs[k0:k1]
            ctx.host_compute(cpu.stream_seconds(l21.size * 8), label="rhs-update")
            reports.append(ctx.sync())  # block steps serialize
        x = solve_triangular(np.triu(a), rhs)
        ctx.host_compute(cpu.scalar_seconds(n * n), label="back-substitution")
        return self._collect(ctx, x, reports)
