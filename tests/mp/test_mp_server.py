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
        plan that kept a view of a request's B (rather than holding its
        own copy) would alias the *next* request's bytes and replay
        stale quantized weights.
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

    def test_late_snapshot_reply_never_answers_the_next_round_trip(self):
        """A reply to an abandoned round trip (one that timed out) still
        arrives on the snapshot pipe; the next ``snapshot()`` must drop
        it and wait for its own reply, not report stale counts.  The
        hand-sent request below stands in for the abandoned one."""
        rng = np.random.default_rng(15)

        async def run():
            config = ServeConfig(time_scale=0.0)
            async with MpTpuServer(_platform(tpus=2), config, workers=1) as server:
                await server.submit(_gemm(1, rng))
                await server.drain()
                before = server.snapshot()
                stale = -1
                assert server._workers[0].send(("snapshot", stale))
                await server.submit(_gemm(2, rng))
                await server.drain()
                return before, server.snapshot()

        before, after = asyncio.run(run())

        def groups(snap):
            return sum(d["groups"] for d in snap["devices"].values())

        assert after["outcomes"]["completed"] == 2
        # Device groups come from the worker's payload: the second
        # request's groups must be in it.
        assert groups(before) > 0
        assert groups(after) == 2 * groups(before)

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            MpTpuServer(_platform(tpus=2), ServeConfig(), workers=3)
        with pytest.raises(ValueError):
            MpTpuServer(_platform(), ServeConfig(), workers=0)

    def test_worker_dying_before_ready_fails_start_fast_and_cleans_up(self, monkeypatch):
        # Unlink worker 1's request ring right after creating it: the
        # worker's attach raises FileNotFoundError and it exits before
        # reporting ready.  start() must fail at once, typed, and leave
        # no worker process or shared-memory segment behind.
        import os

        from repro.errors import WorkerStartError
        from repro.mp import server as server_module

        created = []
        real_create = server_module.ShmRing.create

        def create(capacity, name=None):
            ring = real_create(capacity, name)
            created.append(ring.shm.name.lstrip("/"))
            if len(created) == 3:  # worker 1's request ring
                ring.shm.unlink()
            return ring

        monkeypatch.setattr(server_module.ShmRing, "create", staticmethod(create))
        server = MpTpuServer(_platform(), ServeConfig(time_scale=0.0), workers=2)

        async def run():
            t0 = time.monotonic()
            with pytest.raises(WorkerStartError, match="worker 1 exited"):
                await server.start()
            return time.monotonic() - t0

        elapsed = asyncio.run(run())
        assert elapsed < 60.0  # the ready wait alone allows 120 s
        assert len(created) == 4
        assert not [n for n in created if os.path.exists(f"/dev/shm/{n}")]
        for worker in server._workers:
            assert not worker.process.is_alive()
            assert worker.req_ring is None and worker.res_ring is None

    def test_spawn_failure_fails_start_typed_and_unlinks_every_ring(self, monkeypatch):
        # Worker 1's process cannot be spawned (say, out of pids) after
        # worker 0's has started.  start() must raise WorkerStartError
        # chained to the cause, reap worker 0, skip the join of the
        # process that never started, and unlink all four rings.
        import multiprocessing.process
        import os

        from repro.errors import WorkerStartError
        from repro.mp import server as server_module

        created = []
        real_create = server_module.ShmRing.create

        def create(capacity, name=None):
            ring = real_create(capacity, name)
            created.append(ring.shm.name.lstrip("/"))
            return ring

        real_start = multiprocessing.process.BaseProcess.start

        def start(process):
            if process.name.endswith("worker1"):
                raise OSError("cannot spawn")
            real_start(process)

        monkeypatch.setattr(server_module.ShmRing, "create", staticmethod(create))
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
        server = MpTpuServer(_platform(), ServeConfig(time_scale=0.0), workers=2)
        with pytest.raises(WorkerStartError, match="cannot spawn") as info:
            asyncio.run(server.start())
        assert isinstance(info.value.__cause__, OSError)
        assert len(created) == 4
        assert not [n for n in created if os.path.exists(f"/dev/shm/{n}")]
        first, second = server._workers
        assert first.process.exitcode is not None
        assert second.process.pid is None
        for worker in server._workers:
            assert worker.req_ring is None and worker.res_ring is None
            assert worker.inbox is None and worker.outbox is None


class TestPlanGossip:
    """The worker side of plan gossip, on a stand-in for its state."""

    @staticmethod
    def _state(cache):
        from types import SimpleNamespace

        sent = []
        state = SimpleNamespace(
            plane=SimpleNamespace(plan_cache=cache), shipped_plans=set(), send=sent.append
        )
        return state, sent

    @staticmethod
    def _plan(signature, exec_seconds=0.5):
        from repro.plan import CompiledPlan, InstrTemplate

        template = InstrTemplate(
            opname="add", label="add:0", group_key="task{task}:g", cache_key="{src}:c",
            model_cache_key="{msrc}:m", data_bytes=8, model_bytes=8, out_bytes=8,
            count=1, model_build_seconds=0.0, exec_seconds=exec_seconds,
        )
        return CompiledPlan(
            signature=signature, kind="generic", opname="add", templates=[template]
        )

    def test_malformed_blob_is_skipped_and_other_faults_surface(self, monkeypatch):
        from repro.mp import worker as worker_module
        from repro.plan import PlanCache, serialize_plan

        good = serialize_plan(self._plan("good"))
        cache = PlanCache()
        state, _ = self._state(cache)
        worker_module._WorkerState.warm_plans(state, [good[:-1], b"junk", good])
        assert cache.peek("good") is not None

        def broken(blob):
            raise RuntimeError("not a format error")

        monkeypatch.setattr(worker_module, "parse_plan", broken)
        with pytest.raises(RuntimeError):
            worker_module._WorkerState.warm_plans(state, [good])

    def test_unserializable_plan_stays_local_and_others_ship(self, monkeypatch):
        from repro.mp import worker as worker_module
        from repro.plan import PlanCache

        cache = PlanCache()
        cache.put("bad", self._plan("bad", exec_seconds=float("nan")))
        cache.put("good", self._plan("good"))
        state, sent = self._state(cache)
        worker_module._WorkerState.ship_new_plans(state)
        ((kind, fresh),) = sent
        assert kind == "plans" and [sig for sig, _ in fresh] == ["good"]

        def broken(plan):
            raise RuntimeError("not a format error")

        monkeypatch.setattr(worker_module, "serialize_plan", broken)
        cache.put("later", self._plan("later"))
        with pytest.raises(RuntimeError):
            worker_module._WorkerState.ship_new_plans(state)
