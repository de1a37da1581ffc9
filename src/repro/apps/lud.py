"""LU decomposition (paper §7.2.3, Table 3: 4K×4K, Linear Algebra).

"Our GPTPU LUD implementation uses the recursive algorithm via crop,
FullyConnected, and conv2D to partition matrices and perform appropriate
operations on different combinations of the partitioned matrices."

Structure (recursive halving into four sub-matrices, no pivoting —
standard on diagonally dominant inputs):

* ``crop`` partitions A into A11/A12/A21/A22 **on the device**,
* A11 is factored by recursion; triangular solves stay on the host CPU
  (sequential, latency-bound),
* the Schur complement A22 − L21·U12 — all the flops — runs as conv2D
  GEMM (§7.1.2), with the subtraction folded into the host-side
  aggregation of the partial products (§6.2.1).

The recursion makes only the current Schur update parallel, which is why
LUD is the one application that does not scale with more TPUs (Fig. 8b):
"LUD ... already partitions matrices into four sub-matrices ... making
it difficult for Tensorizer to scale the performance in only one of the
four partitions."
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro import parallel
from repro.apps.base import Application, CPUResult, GPTPUResult
from repro.host.cpu import CPUCoreModel
from repro.ops.crop_pad import tpu_crop
from repro.ops.gemm import tpu_gemm
from repro.runtime.api import OpenCtpu


def make_dd_matrix(n: int, seed: int) -> np.ndarray:
    """A diagonally dominant matrix (stable without pivoting)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, (n, n))
    a[np.diag_indices(n)] += a.sum(axis=1)
    return a


def packed_lu_cpu(a: np.ndarray) -> np.ndarray:
    """Doolittle LU without pivoting, packed (L below, U on/above diag)."""
    lu = np.array(a, dtype=np.float64)
    n = lu.shape[0]
    for k in range(n - 1):
        col = lu[k + 1 :, k]
        col /= lu[k, k]
        # The rank-1 update as a broadcast product (``np.outer`` makes the
        # same products), subtracted in place.
        trail = lu[k + 1 :, k + 1 :]
        trail -= col[:, None] * lu[k, k + 1 :]
    return lu


class LUDApp(Application):
    """Recursive blocked LU decomposition."""

    name = "lud"
    category = "Linear Algebra"
    paper_input = "1 x 4K x 4K (64 MB)"

    def __init__(self, leaf: int = 64) -> None:
        self.leaf = leaf

    def default_params(self) -> Dict[str, int]:
        return {"n": 1024}

    def generate(self, seed: int = 0, **params: int) -> Dict[str, np.ndarray]:
        a = make_dd_matrix(params.get("n", 256), seed)
        # Read-only: a crop of a read-only operand (and of its
        # sub-matrix views) takes its scale from one scan per matrix.
        a.flags.writeable = False
        return {"a": a}

    @staticmethod
    def _reconstruct(packed: np.ndarray) -> np.ndarray:
        """L·U from the packed factors — the comparable app output.

        Packed LU entries straddle zero, which makes entrywise relative
        error meaningless; the reconstruction (≈ A) is the quantity both
        implementations should agree on.
        """
        n = packed.shape[0]
        u = np.triu(packed)

        def rows(r0: int, r1: int, out: np.ndarray) -> None:
            # Rows r0..r1 of ``(tril(packed, -1) + eye(n)) @ u``.
            l = np.tril(packed[r0:r1], r0 - 1)
            l += np.eye(r1 - r0, n, r0)
            np.matmul(l, u, out=out)

        return parallel.fill_rows(np.empty((n, n)), rows, n**3)

    def run_cpu(self, inputs: Dict[str, np.ndarray], cpu: CPUCoreModel) -> CPUResult:
        a = inputs["a"]
        n = a.shape[0]
        # Rodinia's LUD baseline: (2/3)n³ multiply-adds of hand-written code.
        seconds = (2.0 / 3.0) * n**3 * 2.0 / cpu.config.lud_effective_flops
        return CPUResult(value=self._reconstruct(packed_lu_cpu(a)), seconds=seconds)

    def run_gptpu(self, inputs: Dict[str, np.ndarray], ctx: OpenCtpu) -> GPTPUResult:
        a = np.asarray(inputs["a"], dtype=np.float64)
        cpu = ctx.platform.cpu
        reports = []
        packed = self._lud_recursive(ctx, cpu, a, reports)
        return self._collect(ctx, self._reconstruct(packed), reports)

    def _lud_recursive(self, ctx: OpenCtpu, cpu: CPUCoreModel, a: np.ndarray, reports) -> np.ndarray:
        from scipy.linalg import solve_triangular  # scipy loads on first use

        n = a.shape[0]
        if n <= self.leaf:
            # Leaf panel: host CPU factorization (charged).
            ctx.host_compute(cpu.scalar_seconds(max(1, 2 * n**3 // 3)), label="lud-panel")
            return packed_lu_cpu(a)
        b = n // 2
        # Device-side partitioning into four sub-matrices via crop
        # (the §7.2.3 recipe; Fig. 8b's "partitions matrices into four
        # sub-matrices").  Crop stages quantized tiles on the device for
        # the downstream GEMM; the host keeps its float copy, so the
        # numerical path uses exact slices — an 8-bit round trip through
        # crop would wipe out the off-diagonal entries of a diagonally
        # dominant matrix (diag ≈ n/2 vs off-diag ≈ 1).
        for box in ((0, 0, b, b), (0, b, b, n - b), (b, 0, n - b, b), (b, b, n - b, n - b)):
            tpu_crop(ctx, a, box)
        a11 = a[:b, :b]
        a12 = a[:b, b:]
        a21 = a[b:, :b]
        a22 = a[b:, b:]

        lu11 = self._lud_recursive(ctx, cpu, a11, reports)
        l11 = np.tril(lu11, -1) + np.eye(b)
        u11 = np.triu(lu11)
        # Triangular solves on the host (sequential, latency-bound).
        u12 = solve_triangular(l11, a12, lower=True, unit_diagonal=True)
        l21 = solve_triangular(u11.T, a21.T, lower=True).T
        # BLAS trsm with many right-hand sides runs at GEMM-class rates.
        ctx.host_compute(cpu.gemm_seconds(b, b, n - b), label="lud-trsm")

        # Schur complement on the TPUs: the O(n³) work.  The subtraction
        # rides the CPU aggregation of the GEMM partials (§6.2.1).  The
        # four-partition recursion caps the chunk fan-out — "making it
        # difficult for Tensorizer to scale the performance in only one
        # of the four partitions" (§9.3) — hence LUD's flat Fig. 8 curve.
        prod = tpu_gemm(ctx, l21, u12, method="conv2d", chunks=4)
        schur = a22 - prod
        schur.flags.writeable = False  # the next level's crops scan it once
        ctx.host_compute(cpu.stream_seconds(schur.size * 8 * 3), label="schur-sub")
        reports.append(ctx.sync())  # the recursion depends on schur

        packed = np.empty_like(a)
        packed[:b, :b] = lu11
        packed[:b, b:] = u12
        packed[b:, :b] = l21
        packed[b:, b:] = self._lud_recursive(ctx, cpu, schur, reports)
        return packed
