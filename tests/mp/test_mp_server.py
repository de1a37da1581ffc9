"""MpTpuServer: bit-identity, merged snapshots, exactly-once events."""

import asyncio
import time

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.edgetpu.isa import Opcode
from repro.host.platform import Platform
from repro.mp import MpTpuServer
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import Tensorizer
from repro.serve.server import ServeConfig


def _platform(tpus=4):
    return Platform(SystemConfig().with_tpus(tpus))


def _gemm(task_id, rng, m=64, k=48, n=32, b=None):
    return OperationRequest(
        task_id=task_id,
        opcode=Opcode.CONV2D,
        inputs=(
            rng.standard_normal((m, k)),
            rng.standard_normal((k, n)) if b is None else b,
        ),
        quant=QuantMode.SCALE,
        attrs={"gemm": True},
        tenant=f"tenant{task_id % 3}",
    )


class TestMpServer:
    def test_sequential_distinct_b_stays_bit_identical(self):
        """Same-shape GEMMs with different B through a warmed plan cache.

        Regression: ring blocks are recycled at identical offsets, so a
        cached plan's ``b_ref`` view aliases the *next* request's bytes;
        matching by value against it replayed stale quantized weights.
        """
        rng = np.random.default_rng(11)
        requests = [_gemm(i + 1, rng) for i in range(4)]
        wants = [Tensorizer().lower(r).result for r in requests]

        async def run():
            config = ServeConfig(time_scale=0.0)
            async with MpTpuServer(_platform(), config, workers=2) as server:
                return [await server.submit(r) for r in requests]

        results = asyncio.run(run())
        for i, (got, want) in enumerate(zip(results, wants)):
            assert got.tobytes() == want.tobytes(), f"request {i} differs"

    def test_concurrent_shared_b_load_merges_and_delivers_exactly_once(self):
        rng = np.random.default_rng(12)
        shared_b = rng.standard_normal((48, 32))
        requests = [_gemm(i + 1, rng, b=shared_b) for i in range(9)]
        wants = [Tensorizer().lower(r).result for r in requests]
        events = []

        async def run():
            config = ServeConfig(time_scale=0.0)
            server = MpTpuServer(_platform(), config, workers=2)
            server.pool.observer = lambda event, sid, dev: events.append(
                (event, sid)
            )
            async with server:
                futures = [server.submit_nowait(r) for r in requests]
                results = await asyncio.gather(*futures)
                await server.drain()
                live = server.snapshot()
            return results, live, server.snapshot()

        results, live, final = asyncio.run(run())
        for got, want in zip(results, wants):
            assert got.tobytes() == want.tobytes()
        # Both the live (round-trip) and post-stop (cached) snapshots
        # must reflect the merged multi-process state.
        for snap in (live, final):
            out = snap["outcomes"]
            assert out["completed"] == len(requests)
            assert out["lost"] == 0
            assert snap["workers"]["count"] == 2
            assert len(set(snap["workers"]["pids"])) == 2
        assert live["coalescing"]["requests_coalesced"] > 0
        delivers = [sid for event, sid in events if event == "deliver"]
        assert sorted(delivers) == sorted(set(delivers))
        assert len(delivers) == len(requests)

    def test_fault_injection_and_breaker_state_cross_the_boundary(self):
        rng = np.random.default_rng(13)
        platform = _platform()
        # Armed before start: the injector ships to whichever worker
        # owns tpu0 and fires there.
        platform.devices[0].inject_fault(after_instructions=0, failures=2)
        requests = [_gemm(i + 1, rng) for i in range(6)]
        wants = [Tensorizer().lower(r).result for r in requests]

        async def run():
            config = ServeConfig(
                time_scale=0.0, max_retries=4, breaker_cooldown=0.01
            )
            async with MpTpuServer(platform, config, workers=2) as server:
                results = [await server.submit(r) for r in requests]
                await server.drain()
                return results, server.snapshot()

        results, snap = asyncio.run(run())
        for got, want in zip(results, wants):
            assert got.tobytes() == want.tobytes()
        assert snap["outcomes"]["completed"] == len(requests)
        assert snap["outcomes"]["lost"] == 0
        assert snap["device_failures"] >= 1
        assert snap["retries"] >= 1
        # Global device names survive the merge: every worker reports
        # breakers for its slice under the worker-global names, and the
        # devices that executed groups appear under theirs.
        assert set(snap["breakers"]) == {f"tpu{i}" for i in range(4)}
        assert set(snap["devices"]) <= {f"tpu{i}" for i in range(4)}
        assert len(snap["devices"]) >= 2  # intra-worker shard fan-out

    def test_snapshot_after_fresh_plans_does_not_stall(self):
        """Plan gossip from fresh lowerings can fill the worker's event
        pipe while ``snapshot()`` blocks the loop; the round trip must
        keep reading that pipe instead of waiting out its timeout."""
        rng = np.random.default_rng(14)

        async def run():
            config = ServeConfig(time_scale=0.0)
            async with MpTpuServer(_platform(tpus=2), config, workers=1) as server:
                for n in (384, 512):
                    await server.gemm(
                        rng.standard_normal((n, n)), rng.standard_normal((n, n))
                    )
                start = time.monotonic()
                snap = server.snapshot()
                return time.monotonic() - start, snap

        elapsed, snap = asyncio.run(run())
        assert elapsed < 5.0
        assert snap["plan_cache"]["misses"] == 2

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            MpTpuServer(_platform(tpus=2), ServeConfig(), workers=3)
        with pytest.raises(ValueError):
            MpTpuServer(_platform(), ServeConfig(), workers=0)
