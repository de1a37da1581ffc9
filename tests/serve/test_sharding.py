"""Server-level sharding: bit-identity, migration, exactly-once.

End-to-end proofs that interconnect-aware segmentation changes *where*
dispatch groups run and nothing about *what* is delivered: a sharded
GEMM's bytes equal the solo lowering's, segments migrate off failed or
quarantined devices without duplicating or dropping a delivery, and the
planner consumes the profile the pool feeds back.
"""

import asyncio

import numpy as np
import pytest

from repro.edgetpu.isa import Opcode
from repro.errors import RequestTimeout
from repro.host.platform import Platform
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import Tensorizer
from repro.serve.server import ServeConfig, TpuServer
from repro.shard import ShardProfile
from repro.telemetry.tracer import SpanTracer


def _gemm_inputs(seed=0, m=257, k=193, n=181):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, k)), rng.standard_normal((k, n))


def _request(a, b, tenant=""):
    return OperationRequest(
        task_id=0,
        opcode=Opcode.CONV2D,
        inputs=(a, b),
        quant=QuantMode.SCALE,
        attrs={"gemm": True},
        tenant=tenant,
    )


def _serve(platform=None, *, profile=None, tracer=None, **config_kwargs):
    config_kwargs.setdefault("time_scale", 0.0)
    config_kwargs.setdefault("quarantine_seconds", 0.01)
    return TpuServer(
        platform or Platform(),
        ServeConfig(**config_kwargs),
        tracer=tracer,
        shard_profile=profile,
    )


def _reference(a, b):
    return Tensorizer().lower(_request(a, b)).result


async def _run_one(server, request, events=None):
    if events is not None:
        server.pool.observer = lambda event, serve_id, device: events.append(
            (event, serve_id, device)
        )
    async with server:
        result = await server.submit(request)
        await server.drain()
        return result, server.snapshot()


class TestShardedDelivery:
    def test_sharded_gemm_is_bit_identical_and_uses_every_device(self):
        a, b = _gemm_inputs(1)
        server = _serve()

        async def run():
            return await _run_one(server, _request(a, b))

        result, snap = asyncio.run(run())
        np.testing.assert_array_equal(result, _reference(a, b))
        sharding = snap["sharding"]
        assert sharding["enabled"]
        assert sharding["plans"] == 1
        assert sharding["segments"] == server.platform.num_tpus
        assert sharding["migrations"] == 0
        assert sharding["merged"] == 1
        # Every pool device executed at least one group of the shard.
        busy = {
            name for name, entry in snap["devices"].items() if entry["groups"] > 0
        }
        assert busy == {f"tpu{i}" for i in range(server.platform.num_tpus)}
        assert snap["outcomes"]["completed"] == 1
        assert snap["outcomes"]["lost"] == 0

    def test_shard_off_keeps_least_loaded_routing(self):
        a, b = _gemm_inputs(2)

        async def run():
            return await _run_one(_serve(shard="off"), _request(a, b))

        result, snap = asyncio.run(run())
        np.testing.assert_array_equal(result, _reference(a, b))
        assert not snap["sharding"]["enabled"]
        assert snap["sharding"]["plans"] == 0
        assert snap["sharding"]["merged"] == 0

    def test_single_device_pool_never_plans(self):
        a, b = _gemm_inputs(3)

        async def run():
            return await _run_one(
                _serve(Platform.with_tpus(1)), _request(a, b)
            )

        result, snap = asyncio.run(run())
        np.testing.assert_array_equal(result, _reference(a, b))
        assert not snap["sharding"]["enabled"]
        assert snap["outcomes"]["completed"] == 1

    def test_invalid_shard_mode_rejected(self):
        with pytest.raises(ValueError):
            _serve(shard="maybe")

    def test_plan_and_segment_spans_are_traced(self):
        a, b = _gemm_inputs(4)
        tracer = SpanTracer(enabled=True)
        server = _serve(tracer=tracer)

        async def run():
            return await _run_one(server, _request(a, b))

        asyncio.run(run())
        plans = [s for s in tracer.spans if s.name == "shard_plan"]
        assert len(plans) == 1
        assert plans[0].args["segments"] == server.platform.num_tpus
        assert plans[0].args["placement"]
        segs = [s for s in tracer.spans if s.name == "segment_exec"]
        assert segs, "sharded dispatch must land segment_exec spans"
        tracks = {s.track for s in segs}
        assert len(tracks) == server.platform.num_tpus
        for span in segs:
            assert span.args["outcome"] == "ok"
            rows = span.args["rows"]
            assert rows is not None and rows[1] > rows[0]


class TestShardFaultTolerance:
    def test_mid_shard_failstop_migrates_and_delivers_once(self):
        # tpu0 dies on arrival: every group the plan pinned there fails
        # its first attempt, migrates to a survivor, and the request
        # still delivers exactly one bit-identical result.
        a, b = _gemm_inputs(5)
        platform = Platform()
        platform.devices[0].inject_fault(after_instructions=0)
        events = []

        async def run():
            return await _run_one(_serve(platform), _request(a, b), events)

        result, snap = asyncio.run(run())
        np.testing.assert_array_equal(result, _reference(a, b))
        assert snap["outcomes"]["completed"] == 1
        assert snap["outcomes"]["lost"] == 0
        assert snap["sharding"]["migrations"] >= 1
        names = [event for event, _, _ in events]
        assert "migrate" in names
        assert names.count("deliver") == 1
        assert snap["devices"].get("tpu0", {}).get("groups", 0) == 0

    def test_migrated_segments_merge_without_gaps_or_overlap(self):
        # A transient first-attempt failure exercises requeue + re-pin;
        # the merge buffer would raise loudly on any duplicated or
        # dropped row span, so a clean delivery proves coverage.
        a, b = _gemm_inputs(6)
        platform = Platform()
        platform.devices[3].inject_fault(after_instructions=0, failures=1)

        async def run():
            return await _run_one(_serve(platform), _request(a, b))

        result, snap = asyncio.run(run())
        np.testing.assert_array_equal(result, _reference(a, b))
        assert snap["sharding"]["merged"] == 1
        assert snap["outcomes"]["completed"] == 1
        assert snap["outcomes"]["failed"] == 0

    def test_vote_integrity_under_sharding_with_distinct_seeds(self):
        # Sharding makes corrupt devices primaries.  With *distinct*
        # injector seeds the witness's corruption never mirrors the
        # primary's, so every corrupt transmission is caught and the
        # delivered bytes stay bit-identical to a clean lowering.
        a, b = _gemm_inputs(7)
        platform = Platform()
        for i, device in enumerate(platform.devices[1:], start=1):
            device.inject_fault(
                after_instructions=0, failures=1, mode="bitflip", seed=100 + i
            )
            device.check_fault(1)  # trip it: next transmit corrupts

        async def run():
            return await _run_one(
                _serve(platform, integrity="vote", max_retries=8),
                _request(a, b),
            )

        result, snap = asyncio.run(run())
        np.testing.assert_array_equal(result, _reference(a, b))
        integ = snap["integrity"]
        assert integ["sdc_detected"] + integ["vote_adjudications"] >= 1
        assert snap["outcomes"]["completed"] == 1
        assert snap["outcomes"]["lost"] == 0

    def test_quarantined_device_is_excluded_from_new_plans(self):
        # A permanently corrupting device is quarantined by the first
        # request; later plans draw only from the survivors.
        a, b = _gemm_inputs(8)
        platform = Platform()
        platform.devices[0].inject_fault(
            after_instructions=0, failures=-1, mode="bitflip", seed=9
        )

        async def run():
            server = _serve(
                platform,
                integrity="abft",
                quarantine_seconds=30.0,
                max_retries=8,
            )
            async with server:
                first = await server.submit(_request(a, b))
                await server.drain()
                groups_before = dict(server.metrics.groups_by_device)
                c, d = _gemm_inputs(9)
                second = await server.submit(_request(c, d))
                await server.drain()
                return (
                    first,
                    second,
                    groups_before,
                    dict(server.metrics.groups_by_device),
                    server.snapshot(),
                )

        first, second, before, after, snap = asyncio.run(run())
        np.testing.assert_array_equal(first, _reference(a, b))
        np.testing.assert_array_equal(second, _reference(*_gemm_inputs(9)))
        assert snap["quarantine"]["tpu0"]["quarantined"]
        # The second request planned around tpu0 entirely.
        assert after.get("tpu0", 0) == before.get("tpu0", 0)
        assert snap["outcomes"]["completed"] == 2
        assert snap["outcomes"]["lost"] == 0


class TestShardDeadline:
    def test_expired_sharded_request_times_out_unmerged(self):
        # The fake clock jumps past the deadline at the last group's
        # dispatch, after the earlier groups landed: the request times
        # out and its merge is neither assembled nor counted.
        a, b = _gemm_inputs(10)

        class Clock:
            now = 0.0

            def __call__(self):
                return self.now

        def run(jump_at=None):
            clock = Clock()
            server = TpuServer(
                Platform(), ServeConfig(time_scale=0.0), clock=clock
            )
            dispatches = []

            def observe(event, serve_id, device):
                if event == "dispatch":
                    dispatches.append(device)
                    if len(dispatches) == jump_at:
                        clock.now = 20.0

            server.pool.observer = observe

            async def main():
                async with server:
                    try:
                        outcome = await server.submit(
                            _request(a, b), deadline_seconds=10.0
                        )
                    except RequestTimeout as exc:
                        outcome = exc
                    await server.drain()
                    return outcome, server.snapshot()

            outcome, snap = asyncio.run(main())
            return outcome, snap, len(dispatches)

        result, snap, groups = run()
        np.testing.assert_array_equal(result, _reference(a, b))
        assert groups > 1 and snap["sharding"]["merged"] == 1

        outcome, snap, _ = run(jump_at=groups)
        assert isinstance(outcome, RequestTimeout)
        assert snap["outcomes"]["timeouts"] == 1
        assert snap["outcomes"]["completed"] == 0
        assert snap["sharding"]["merged"] == 0


class TestProfileFeedback:
    def test_pool_feeds_profile_during_sharded_traffic(self):
        a, b = _gemm_inputs(10)
        server = _serve()
        assert server.plane.shard_profile.observations == 0

        async def run():
            return await _run_one(server, _request(a, b))

        _, snap = asyncio.run(run())
        assert server.plane.shard_profile.observations > 0
        profile_snap = snap["sharding"]["profile"]
        assert profile_snap["profiled"]
        assert len(profile_snap["seconds_per_instruction"]) == (
            server.platform.num_tpus
        )

    def test_preseeded_skewed_profile_shifts_server_placement(self):
        # The ISSUE's profiled-split proof at the server level: a
        # profile marking tpu0 4x slower must shrink the group share the
        # running server routes to it.
        a, b = _gemm_inputs(11)
        profile = ShardProfile(8)
        for d in range(8):
            profile.observe(d, 1000, 4.0 if d == 0 else 1.0)

        async def run():
            return await _run_one(_serve(profile=profile), _request(a, b))

        result, snap = asyncio.run(run())
        np.testing.assert_array_equal(result, _reference(a, b))
        groups = {
            name: entry["groups"] for name, entry in snap["devices"].items()
        }
        fast = [groups[f"tpu{i}"] for i in range(1, 8)]
        assert groups["tpu0"] < min(fast)
