"""Serving with the AOT plan cache: warm binds, counters, opt-out."""

import asyncio

import numpy as np

from repro.edgetpu.isa import Opcode
from repro.host.platform import Platform
from repro.loadgen import LoadgenSpec, run_loadgen
from repro.plan import PlanCache
from repro.runtime.api import OpenCtpu
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import Tensorizer
from repro.serve import ServeConfig, TpuServer


def _spec(**over) -> LoadgenSpec:
    base = dict(tpus=2, tenants=2, requests_per_tenant=3, size=32, seed=3)
    base.update(over)
    return LoadgenSpec(**base)


class TestServingPlanCache:
    def test_steady_shape_workload_binds_from_cache(self):
        result = run_loadgen(_spec())
        plan = result.snapshot["plan_cache"]
        assert plan["entries"] >= 1
        assert plan["misses"] >= 1 and plan["hits"] >= 1
        assert plan["binds"] >= 1
        # Replayed plans never change delivered bytes.
        assert result.mismatches == 0

    def test_model_operand_edited_in_place_between_requests(self):
        # A client keeps one writable float64 B and edits it in place
        # between two GEMMs.  The second request binds the plan the
        # first captured, and must deliver what a fresh lowering of the
        # edited values gives.
        rng = np.random.default_rng(21)
        b = rng.normal(size=(64, 64))

        def gemm(a):
            return OperationRequest(
                task_id=0, opcode=Opcode.CONV2D, inputs=(a, b),
                quant=QuantMode.SCALE, attrs={"gemm": True},
            )

        a1, a2 = rng.normal(size=(64, 64)), rng.normal(size=(64, 64))
        edit = rng.normal(size=b.shape)

        async def main():
            async with TpuServer(Platform.with_tpus(1), ServeConfig(time_scale=0.0)) as server:
                await server.submit(gemm(a1))
                b[...] += edit
                got = await server.submit(gemm(a2))
                return got, server.snapshot()["plan_cache"]

        got, plan = asyncio.run(main())
        assert plan["hits"] >= 1
        want = Tensorizer().lower(gemm(a2)).result
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_plan_cache_opt_out_removes_the_surface(self):
        result = run_loadgen(_spec(plan_cache=False))
        assert "plan_cache" not in result.snapshot
        assert result.mismatches == 0


class TestRuntimeCounterRegistry:
    def test_plan_source_registered_when_cache_present(self):
        cache = PlanCache()
        ctx = OpenCtpu(Platform.with_tpus(1), plan_cache=cache)
        a = np.ones((16, 16))
        from repro import ops

        ops.tpu_gemm(ctx, a, a, method="conv2d")
        ops.tpu_gemm(ctx, a, a, method="conv2d")
        snapshot = ctx.counter_registry().snapshot()
        assert snapshot["plan"]["hits"] >= 1
        assert snapshot["plan"]["entries"] >= 1

    def test_no_plan_source_without_a_cache(self):
        ctx = OpenCtpu(Platform.with_tpus(1))
        assert "plan" not in ctx.counter_registry().snapshot()
