"""Black-Scholes option pricing (paper §7.2.6, Table 3: 256M×9, Finance).

Prices European calls.  The cumulative normal distribution function is
the transcendental bottleneck; "GPTPU uses a ninth-degree polynomial
function [75] ... to compute the cumulative normal distribution
function".  We fit the degree-9 polynomial to Φ on [-4, 4] once, on
first use, and evaluate it on-device with Horner's rule: nine pairwise
``mul`` instructions, with the tiny per-step coefficient adds folded
into the host aggregation (§6.2.1).

The CPU baseline evaluates the exact Φ via ``erf`` at the calibrated
AxBench per-option cost.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict

import numpy as np

from repro.apps.base import Application, CPUResult, GPTPUResult
from repro.host.cpu import CPUCoreModel
from repro.ops.elementwise import tpu_mul
from repro.runtime.api import OpenCtpu

#: Domain on which the polynomial approximates Φ; d-values are clipped
#: here (Φ saturates to 0/1 outside anyway).
CNDF_DOMAIN = 4.0


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Exact Φ (scipy loads on first use, not at import)."""
    from scipy.special import ndtr

    return ndtr(x)


@lru_cache(maxsize=None)
def _cndf_coeffs() -> np.ndarray:
    xs = np.linspace(-CNDF_DOMAIN, CNDF_DOMAIN, 2001)
    coeffs = np.polynomial.polynomial.polyfit(xs, _ndtr(xs), 9)
    coeffs.flags.writeable = False
    return coeffs


def __getattr__(name: str):
    # ``CNDF_COEFFS``: coefficients c0..c9 of the ninth-degree CNDF
    # approximation, fitted on first use.
    if name == "CNDF_COEFFS":
        return _cndf_coeffs()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cndf_poly_reference(x: np.ndarray) -> np.ndarray:
    """Float evaluation of the fitted polynomial (error bound ~1e-3)."""
    return np.polynomial.polynomial.polyval(
        np.clip(x, -CNDF_DOMAIN, CNDF_DOMAIN), _cndf_coeffs()
    )


class BlackScholesApp(Application):
    """European call pricing over a batch of options."""

    name = "blackscholes"
    category = "Finance"
    paper_input = "1 x 256M x 9 (9 GB)"

    def default_params(self) -> Dict[str, int]:
        return {"n_options": 1 << 16}

    def generate(self, seed: int = 0, **params: int) -> Dict[str, np.ndarray]:
        n = params.get("n_options", 1 << 16)
        side = int(np.sqrt(n))
        n = side * side  # options arranged as a matrix for pairwise ops
        rng = np.random.default_rng(seed)
        spot = rng.uniform(20.0, 120.0, n)
        return {
            "spot": spot,
            # Near-the-money strikes keep prices bounded away from zero
            # (deep out-of-the-money prices underflow any 8-bit path and
            # make relative-error metrics meaningless).
            "strike": spot * rng.uniform(0.8, 1.2, n),
            "tte": rng.uniform(0.25, 2.0, n),
            "rate": np.full(n, 0.02),
            "vol": rng.uniform(0.2, 0.6, n),
        }

    # -- shared math ---------------------------------------------------------

    @staticmethod
    def _d1_d2(inputs: Dict[str, np.ndarray]):
        s, k, t = inputs["spot"], inputs["strike"], inputs["tte"]
        r, v = inputs["rate"], inputs["vol"]
        d1 = (np.log(s / k) + (r + 0.5 * v**2) * t) / (v * np.sqrt(t))
        d2 = d1 - v * np.sqrt(t)
        return d1, d2

    @staticmethod
    def _price(inputs, nd1, nd2):
        s, k, t = inputs["spot"], inputs["strike"], inputs["tte"]
        r = inputs["rate"]
        return s * nd1 - k * np.exp(-r * t) * nd2

    def run_cpu(self, inputs: Dict[str, np.ndarray], cpu: CPUCoreModel) -> CPUResult:
        d1, d2 = self._d1_d2(inputs)
        value = self._price(inputs, _ndtr(d1), _ndtr(d2))
        # Two CNDF evaluations per option at the AxBench reference cost.
        seconds = cpu.transcendental_seconds(2 * value.size)
        return CPUResult(value=value, seconds=seconds)

    def _cndf_device(self, ctx: OpenCtpu, x: np.ndarray, tag: str) -> np.ndarray:
        """Horner evaluation of the degree-9 polynomial on the TPUs.

        The d-value grid is the first operand of every ``mul`` so it
        stays resident on-chip across the nine recurrence steps
        (``data_name`` caching).
        """
        cpu = ctx.platform.cpu
        side = int(np.sqrt(x.size))
        grid = np.clip(x, -CNDF_DOMAIN, CNDF_DOMAIN).reshape(side, side)
        coeffs = _cndf_coeffs()
        acc = np.full_like(grid, coeffs[-1])
        prev_task = None
        for c in coeffs[-2::-1]:
            deps = [prev_task] if prev_task is not None else []
            acc = tpu_mul(ctx, grid, acc, data_name=f"bs-grid-{tag}", depends_on=deps)
            prev_task = ctx.last_task
            acc = acc + c  # scalar coefficient add on the host
            ctx.host_compute(cpu.stream_seconds(acc.size * 8), label="horner-add")
        return acc.ravel()

    def run_gptpu(self, inputs: Dict[str, np.ndarray], ctx: OpenCtpu) -> GPTPUResult:
        cpu = ctx.platform.cpu
        d1, d2 = self._d1_d2(inputs)
        # d1/d2 preparation stays on the host (log/sqrt, one pass).
        ctx.host_compute(cpu.stream_seconds(d1.size * 8 * 6), label="d1d2")
        nd1 = self._cndf_device(ctx, d1, "d1")
        nd2 = self._cndf_device(ctx, d2, "d2")
        value = self._price(inputs, nd1, nd2)
        ctx.host_compute(cpu.stream_seconds(value.size * 8 * 4), label="pricing")
        return self._collect(ctx, value, [])
