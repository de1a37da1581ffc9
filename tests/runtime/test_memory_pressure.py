"""On-chip memory pressure and cache-behaviour tests through the runtime."""

import numpy as np
import pytest

from repro.host.platform import Platform
from repro.ops.gemm import tpu_gemm, tpu_matvec
from repro.runtime.api import OpenCtpu


def rand(shape, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 4.0, shape)


class TestResidency:
    def test_repeated_matvec_hits_model_cache(self):
        platform = Platform.with_tpus(1)
        ctx = OpenCtpu(platform)
        mat = rand((256, 256), 1)
        vec = rand((256,), 2)
        for i in range(3):
            tpu_matvec(ctx, vec + i * 0.01, mat, model_name="shared-weights")
        ctx.sync()
        device = platform.devices[0]
        cached = [r.name for r in device.memory.snapshot() if r.name.startswith("m:shared")]
        assert len(cached) == 4  # 2x2 tiles of the 256² matrix
        # Only the first pass transferred the tiles.
        big_transfers = [
            t for t in platform.tracer if t.kind == "transfer" and t.meta["nbytes"] > 10_000
        ]
        assert len(big_transfers) == 4

    def test_oversized_model_evicts_older_entries(self):
        platform = Platform.with_tpus(1)
        ctx = OpenCtpu(platform)
        vec = rand((128,), 3)
        # Six 2 MB weight matrices (128x16384 int8) cannot all stay in 8 MB.
        for i in range(6):
            mat = np.full((128, 16384), (i + 1) * 0.5)
            tpu_matvec(ctx, vec, mat, model_name=f"weights-{i}")
        ctx.sync()
        device = platform.devices[0]
        assert device.memory.used_bytes <= device.memory.capacity_bytes
        assert device.memory.evictions > 0

    def test_gemm_chunks_respect_capacity(self):
        platform = Platform.with_tpus(1)
        ctx = OpenCtpu(platform)
        # A 2048x2048 input quantizes to 4 MB; its reshaped chunks plus
        # kernel batches must never exceed the 8 MB device memory.
        a = rand((1024, 1024), 4)
        tpu_gemm(ctx, a, a)
        ctx.sync()
        device = platform.devices[0]
        assert device.memory.used_bytes <= device.memory.capacity_bytes

    def test_memory_persists_across_syncs(self):
        platform = Platform.with_tpus(1)
        ctx = OpenCtpu(platform)
        mat = rand((128, 128), 5)
        vec = rand((128,), 6)
        tpu_matvec(ctx, vec, mat, model_name="persistent")
        ctx.sync()
        used_after_first = platform.devices[0].memory.used_bytes
        tpu_matvec(ctx, vec * 2, mat, model_name="persistent")
        report = ctx.sync()
        assert platform.devices[0].memory.used_bytes == used_after_first
        # Second pass moved only the small vector and results.
        assert report.timeline.bytes_transferred < 1000


class TestDeviceCounters:
    def test_instruction_counters_track_executed_work(self):
        platform = Platform.with_tpus(2)
        ctx = OpenCtpu(platform)
        a = rand((256, 256), 7)
        ctx.invoke_operator("add", a, a)
        report = ctx.sync()
        total = sum(d.instructions_executed for d in platform.devices)
        assert total == report.timeline.instructions == 4

    def test_busy_seconds_match_trace(self):
        platform = Platform.with_tpus(1)
        ctx = OpenCtpu(platform)
        a = rand((128, 128), 8)
        ctx.invoke_operator("mul", a, a)
        ctx.sync()
        device = platform.devices[0]
        traced = sum(
            r.duration for r in platform.tracer if r.kind == "instruction" and r.unit == "tpu0"
        )
        assert device.busy_seconds == pytest.approx(traced)
