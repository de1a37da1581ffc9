"""End-to-end serving: submit → coalesce → dispatch → deliver."""

import asyncio

import numpy as np
import pytest

from repro.edgetpu.isa import Opcode
from repro.errors import QueueFull, RequestTimeout, ServingError
from repro.host.platform import Platform
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import Tensorizer
from repro.serve import LoadgenSpec, ServeConfig, TpuServer, run_loadgen
from repro.serve.server import make_server

#: Front-door behaviour is shared, so these tests run against both the
#: in-process server (workers=0) and the multi-process one (workers=1).
BOTH_SERVERS = pytest.mark.parametrize("workers", [0, 1])


def _gemm_request(rng, size=32, b=None, tenant=""):
    if b is None:
        b = rng.normal(size=(size, size))
    return OperationRequest(
        task_id=0,
        opcode=Opcode.CONV2D,
        inputs=(rng.normal(size=(size, size)), b),
        quant=QuantMode.SCALE,
        attrs={"gemm": True},
        tenant=tenant,
    )


def _config(**overrides):
    defaults = dict(time_scale=0.0, max_queue_depth=64)
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestServerBasics:
    def test_single_request_round_trip(self):
        async def main():
            rng = np.random.default_rng(0)
            request = _gemm_request(rng)
            platform = Platform.with_tpus(2)
            async with TpuServer(platform, _config()) as server:
                result = await server.submit(request)
            # The serving path must deliver exactly the solo lowering.
            want = Tensorizer(
                platform.config.edgetpu, cpu=platform.cpu
            ).lower(request).result
            assert np.asarray(result).tobytes() == np.asarray(want).tobytes()

        asyncio.run(main())

    @BOTH_SERVERS
    def test_submit_requires_started_server(self, workers):
        async def main():
            server = make_server(Platform.with_tpus(1), _config(), workers=workers)
            with pytest.raises(ServingError):
                server.submit_nowait(_gemm_request(np.random.default_rng(0)))

        asyncio.run(main())

    @BOTH_SERVERS
    def test_gemm_convenience_wrapper(self, workers):
        async def main():
            rng = np.random.default_rng(1)
            a = rng.normal(size=(16, 16))
            b = rng.normal(size=(16, 16))
            platform = Platform.with_tpus(1)
            async with make_server(platform, _config(), workers=workers) as server:
                result = await server.gemm(a, b, tenant="x")
            assert np.asarray(result).shape == (16, 16)

        asyncio.run(main())

    def test_concurrent_clients_coalesce(self):
        async def main():
            rng = np.random.default_rng(2)
            b = rng.normal(size=(32, 32))
            requests = [
                _gemm_request(rng, b=b, tenant=f"t{i}") for i in range(4)
            ]
            platform = Platform.with_tpus(2)
            async with TpuServer(platform, _config()) as server:
                results = await asyncio.gather(
                    *(server.submit(r) for r in requests)
                )
                snap = server.snapshot()
            reference = Tensorizer(platform.config.edgetpu, cpu=platform.cpu)
            for request, result in zip(requests, results):
                want = reference.lower(request).result
                assert np.asarray(result).tobytes() == np.asarray(want).tobytes()
            return snap

        snap = asyncio.run(main())
        assert snap["outcomes"]["completed"] == 4
        assert snap["outcomes"]["lost"] == 0
        # All four clients landed in the same serving window and shared
        # one coalesced lowering (same B, same shape, SCALE quant).
        assert snap["coalescing"]["requests_coalesced"] == 4
        assert snap["coalescing"]["groups"] == 1


class TestBackpressureAndDeadlines:
    @BOTH_SERVERS
    def test_queue_full_fast_reject(self, workers):
        async def main():
            rng = np.random.default_rng(3)
            config = _config(max_queue_depth=2)
            platform = Platform.with_tpus(1)
            async with make_server(platform, config, workers=workers) as server:
                futures = []
                rejected = 0
                # Submit synchronously — no awaits — so the dispatch loop
                # cannot drain between offers.
                for _ in range(6):
                    try:
                        futures.append(server.submit_nowait(_gemm_request(rng)))
                    except QueueFull:
                        rejected += 1
                results = await asyncio.gather(*futures)
                snap = server.snapshot()
            return rejected, len(results), snap

        rejected, delivered, snap = asyncio.run(main())
        assert rejected == 4  # capacity 2: the rest fast-rejected
        assert delivered == 2
        assert snap["outcomes"]["rejected"] == 4
        assert snap["outcomes"]["lost"] == 0

    @BOTH_SERVERS
    def test_deadline_times_out_queued_request(self, workers):
        async def main():
            rng = np.random.default_rng(4)
            platform = Platform.with_tpus(1)
            async with make_server(platform, _config(), workers=workers) as server:
                future = server.submit_nowait(
                    _gemm_request(rng), deadline_seconds=-1.0
                )  # already expired on arrival
                with pytest.raises(RequestTimeout):
                    await future
                snap = server.snapshot()
            return snap

        snap = asyncio.run(main())
        assert snap["outcomes"]["timeouts"] == 1
        assert snap["outcomes"]["lost"] == 0


class TestFaultToleranceEndToEnd:
    def test_loadgen_survives_permanent_device_failure(self):
        result = run_loadgen(
            LoadgenSpec(
                tpus=4,
                tenants=3,
                requests_per_tenant=3,
                size=64,
                fail_after_instructions=10,
                fail_device=1,
            )
        )
        outcomes = result.snapshot["outcomes"]
        assert outcomes["lost"] == 0
        assert outcomes["completed"] == 9  # every request survived
        assert result.mismatches == 0  # and stayed bit-identical
        assert result.snapshot["device_failures"] >= 1
        assert result.snapshot["retries"] >= 1
        assert result.snapshot["platform"]["healthy"] == 3

    def test_loadgen_clean_run_has_no_retries(self):
        result = run_loadgen(
            LoadgenSpec(tpus=2, tenants=2, requests_per_tenant=2, size=48)
        )
        outcomes = result.snapshot["outcomes"]
        assert outcomes["completed"] == 4
        assert outcomes["lost"] == 0
        assert result.snapshot["device_failures"] == 0
        assert result.snapshot["retries"] == 0
        assert result.mismatches == 0

class TestLoadgenClock:
    def test_injectable_clock_is_used_for_wall_and_latency(self):
        # A frozen clock proves loadgen never reads time.monotonic()
        # directly: every timestamp (start, completion, wall) comes from
        # the injected callable, so the measured wall is exactly zero.
        frozen = lambda: 1234.5  # noqa: E731
        result = run_loadgen(
            LoadgenSpec(tpus=2, tenants=2, requests_per_tenant=2, size=48),
            clock=frozen,
        )
        assert result.snapshot["outcomes"]["completed"] == 4
        assert result.wall_seconds == 0.0
        latency = result.snapshot["latency"]
        assert latency["p99_seconds"] == 0.0
        assert latency["max_seconds"] == 0.0

    def test_loadgen_drives_the_multiprocess_server(self):
        result = run_loadgen(
            LoadgenSpec(
                tpus=4, workers=2, tenants=2, requests_per_tenant=2, size=48
            )
        )
        outcomes = result.snapshot["outcomes"]
        assert outcomes["completed"] == 4
        assert outcomes["lost"] == 0
        assert result.mismatches == 0
        assert result.snapshot["workers"]["count"] == 2


class TestNNRequestMix:
    def test_nn_mix_delivers_exactly_once_and_bit_identical(self):
        result = run_loadgen(
            LoadgenSpec(mix="nn", tpus=4, tenants=3, requests_per_tenant=6)
        )
        outcomes = result.snapshot["outcomes"]
        assert outcomes["completed"] == 18
        assert outcomes["lost"] == 0
        assert result.mismatches == 0
        assert all(n == 6 for n in result.delivered_by_tenant.values())

    def test_nn_mix_coalesces_only_the_score_gemms(self):
        # The mix interleaves conv2D_nn / shared-B GEMM / softmax.  Only
        # the attention-score GEMMs share a coalesce key; every NN op
        # must stay a singleton (their quant params are per-request).
        result = run_loadgen(
            LoadgenSpec(mix="nn", tpus=2, tenants=4, requests_per_tenant=6)
        )
        assert result.mismatches == 0
        coalesced = result.snapshot["coalescing"]["requests_coalesced"]
        # 4 tenants x 2 score GEMMs each = 8 coalescible requests; the
        # 16 NN requests must contribute nothing.
        assert coalesced <= 8

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError, match="mix"):
            run_loadgen(LoadgenSpec(mix="bogus"))
