"""Backpropagation (paper §7.2.5, Table 3: 8K×8K, Pattern Recognition).

A "plain-vanilla" two-layer feedforward network trained for one batch:
forward passes are ``tpuGemm`` + pairwise ``add`` (bias) + device
``tanh`` activations, the backward pass uses ``mul`` for the activation
derivative and ``tpuGemm`` for the weight deltas — the §7.2.5
instruction mix.  The final weight update (w += lr·dw) rides the host
aggregation: adding a tiny delta to full-range weights through an 8-bit
pairwise op would floor the update at the weights' quantization step.

The paper's best speedup (4.08×) comes from Rodinia's baseline being
hand-written loops rather than BLAS, so the CPU baseline here charges
the naive-GEMM rate.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro import parallel
from repro.apps.base import Application, CPUResult, GPTPUResult
from repro.host.cpu import CPUCoreModel
from repro.ops.elementwise import tpu_add, tpu_mul, tpu_tanh
from repro.ops.gemm import tpu_gemm
from repro.runtime.api import OpenCtpu


class BackpropApp(Application):
    """One training step of a 2-layer MLP with tanh activations."""

    name = "backprop"
    category = "Pattern Recognition"
    paper_input = "1 x 8K x 8K (512 MB)"

    learning_rate = 0.01

    def default_params(self) -> Dict[str, int]:
        return {"batch": 2048, "n_in": 2048, "n_hidden": 512, "n_out": 64}

    def generate(self, seed: int = 0, **params: int) -> Dict[str, np.ndarray]:
        p = {**self.default_params(), **params}
        rng = np.random.default_rng(seed)
        # 1/sqrt(fan-in) initialization keeps pre-activations within ±3,
        # where the device's 8-bit tanh LUT resolves well.
        return {
            "x": rng.uniform(-1.0, 1.0, (p["batch"], p["n_in"])),
            "target": rng.uniform(-0.9, 0.9, (p["batch"], p["n_out"])),
            "w1": rng.normal(0.0, 1.0 / np.sqrt(p["n_in"]), (p["n_in"], p["n_hidden"])),
            "w2": rng.normal(0.0, 1.0 / np.sqrt(p["n_hidden"]), (p["n_hidden"], p["n_out"])),
            "b1": rng.normal(0.0, 0.2, p["n_hidden"]),
            "b2": rng.normal(0.0, 0.2, p["n_out"]),
        }

    # -- shared math -------------------------------------------------------

    def _flops(self, x, w1, w2) -> int:
        batch, n_in = x.shape
        n_hidden, n_out = w2.shape
        gemms = (
            2 * batch * n_in * n_hidden  # forward layer 1
            + 2 * batch * n_hidden * n_out  # forward layer 2
            + 2 * batch * n_hidden * n_out  # delta backprop
            + 2 * n_in * batch * n_hidden  # dW1
            + 2 * n_hidden * batch * n_out  # dW2
        )
        return gemms

    def run_cpu(self, inputs: Dict[str, np.ndarray], cpu: CPUCoreModel) -> CPUResult:
        x, target = inputs["x"], inputs["target"]
        w1, w2 = self._train_step_float(x, target, inputs["w1"], inputs["w2"],
                                        inputs["b1"], inputs["b2"])
        seconds = self._flops(x, inputs["w1"], w2) / cpu.config.naive_gemm_flops
        seconds += cpu.stream_seconds(8 * (x.size + 4 * target.size))
        return CPUResult(value=self._predict(inputs, w1, w2), seconds=seconds)

    @staticmethod
    def _predict(inputs: Dict[str, np.ndarray], w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
        """Output-layer pre-activations of the updated network.

        The comparable app output: raw weights straddle zero, which makes
        entrywise relative error meaningless, while predictions carry the
        update's full effect.
        """
        x, b1, b2 = inputs["x"], inputs["b1"], inputs["b2"]

        def rows(r0: int, r1: int, out: np.ndarray) -> None:
            # ``tanh(x @ w1 + b1) @ w2 + b2`` for rows r0..r1, in place:
            # the same products, sums and tanh, element for element.
            h = np.matmul(x[r0:r1], w1)
            h += b1
            np.tanh(h, out=h)
            np.matmul(h, w2, out=out)
            out += b2

        out = np.empty((x.shape[0], w2.shape[1]))
        work = x.shape[0] * (x.shape[1] + w2.shape[1]) * w1.shape[1]  # multiply-adds
        return parallel.fill_rows(out, rows, work)

    def _train_step_float(
        self,
        x: np.ndarray,
        target: np.ndarray,
        w1: np.ndarray,
        w2: np.ndarray,
        b1: np.ndarray,
        b2: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        h = np.tanh(x @ w1 + b1)
        o = np.tanh(h @ w2 + b2)
        delta_o = (target - o) * (1.0 - o**2)
        delta_h = (delta_o @ w2.T) * (1.0 - h**2)
        w2 = w2 + self.learning_rate * (h.T @ delta_o)
        w1 = w1 + self.learning_rate * (x.T @ delta_h)
        return w1, w2

    def run_gptpu(self, inputs: Dict[str, np.ndarray], ctx: OpenCtpu) -> GPTPUResult:
        x, target = inputs["x"], inputs["target"]
        w1, w2 = inputs["w1"], inputs["w2"]
        b1, b2 = inputs["b1"], inputs["b2"]
        cpu = ctx.platform.cpu

        # Forward: tpuGemm + bias add + device tanh per layer, chained
        # through depends_on so the DES timeline honors the dataflow.
        h_pre = tpu_gemm(ctx, x, w1)
        t = ctx.last_task
        h_b = tpu_add(ctx, h_pre, np.broadcast_to(b1, (x.shape[0], b1.size)), depends_on=[t])
        t = ctx.last_task
        h = tpu_tanh(ctx, h_b, depends_on=[t])
        t_h = ctx.last_task
        o_pre = tpu_gemm(ctx, h, w2, depends_on=[t_h])
        t = ctx.last_task
        o_b = tpu_add(ctx, o_pre, np.broadcast_to(b2, (h.shape[0], b2.size)), depends_on=[t])
        t = ctx.last_task
        o = tpu_tanh(ctx, o_b, depends_on=[t])
        t_o = ctx.last_task

        # Output error on the host (cheap), derivative products on-device.
        err = target - o
        ctx.host_compute(cpu.stream_seconds(8 * err.size * 3), label="output-error")
        delta_o = tpu_mul(ctx, err, 1.0 - o**2, depends_on=[t_o])
        t_do = ctx.last_task
        back = tpu_gemm(ctx, delta_o, w2.T, depends_on=[t_do])
        t_back = ctx.last_task
        delta_h = tpu_mul(ctx, back, 1.0 - h**2, depends_on=[t_back, t_h])
        t_dh = ctx.last_task

        # Weight deltas via tpuGemm (§7.2.5: "tpuGEMM to derive weights
        # for the delta matrix"); the += update rides the host
        # aggregation of the delta partials.
        dw2 = tpu_gemm(ctx, h.T, delta_o, depends_on=[t_h, t_do])
        dw1 = tpu_gemm(ctx, x.T, delta_h, depends_on=[t_dh])
        new_w2 = w2 + self.learning_rate * dw2
        new_w1 = w1 + self.learning_rate * dw1
        ctx.host_compute(cpu.stream_seconds(8 * (dw1.size + dw2.size) * 3), label="weight-update")

        value = self._predict(inputs, new_w1, new_w2)
        return self._collect(ctx, value, [])
