"""Cross-module integration tests and global invariants."""

import numpy as np
import pytest

from repro.host.platform import Platform
from repro.metrics import rmse_percent
from repro.ops import tpu_add, tpu_gemm, tpu_matvec, tpu_mean, tpu_relu
from repro.runtime import OpenCtpu


def rand(shape, seed=0, lo=0.0, hi=4.0):
    return np.random.default_rng(seed).uniform(lo, hi, shape)


class TestMixedPrograms:
    def test_long_mixed_program_stays_accurate(self):
        """A multi-operator program exercising most of the ISA."""
        ctx = OpenCtpu(Platform.with_tpus(4))
        a = rand((128, 128), 1)
        b = rand((128, 128), 2)

        c = tpu_gemm(ctx, a, b)
        d = tpu_add(ctx, c, a, depends_on=[ctx.last_task])
        e = tpu_relu(ctx, d - d.mean(), depends_on=[ctx.last_task])
        m = tpu_mean(ctx, e)
        v = tpu_matvec(ctx, a[0], b)
        report = ctx.sync()

        ref_c = a @ b
        ref_d = ref_c + a
        ref_e = np.maximum(d - d.mean(), 0)
        assert rmse_percent(c, ref_c) < 1.0
        assert rmse_percent(d, ref_d) < 1.0
        assert m == pytest.approx(ref_e.mean(), rel=0.05)
        assert rmse_percent(v, a[0] @ b) < 1.0
        assert report.timeline.instructions > 5

    def test_two_contexts_do_not_interfere(self):
        ctx1 = OpenCtpu(Platform.with_tpus(1))
        ctx2 = OpenCtpu(Platform.with_tpus(8))
        a = rand((96, 96), 3)
        r1 = tpu_gemm(ctx1, a, a)
        r2 = tpu_gemm(ctx2, a, a)
        np.testing.assert_array_equal(r1, r2)  # values platform-independent
        t1 = ctx1.sync().wall_seconds
        t2 = ctx2.sync().wall_seconds
        assert t2 <= t1  # timing is not


class TestGlobalInvariants:
    def _run_some_work(self, tpus=3):
        platform = Platform.with_tpus(tpus)
        ctx = OpenCtpu(platform)
        a = rand((300, 300), 4)
        tpu_gemm(ctx, a, a)
        tpu_add(ctx, a, a)
        report = ctx.sync()
        return platform, report

    def test_no_unit_busier_than_wall(self):
        platform, report = self._run_some_work()
        for unit, busy in report.timeline.busy_by_unit.items():
            assert busy <= report.wall_seconds * (1 + 1e-9), unit

    def test_exec_records_never_overlap_per_device(self):
        """The matrix unit executes one instruction at a time."""
        platform, _report = self._run_some_work()
        for i in range(platform.num_tpus):
            spans = sorted(
                (r.start, r.end)
                for r in platform.tracer
                if r.kind == "instruction" and r.unit == f"tpu{i}"
            )
            for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
                assert s2 >= e1 - 1e-12

    def test_energy_components_sum(self):
        _platform, report = self._run_some_work()
        e = report.energy
        assert e.total_joules == pytest.approx(e.idle_joules + e.active_joules)
        assert e.idle_joules == pytest.approx(40.0 * report.wall_seconds)

    def test_bytes_transferred_matches_dma_ledger(self):
        platform, report = self._run_some_work()
        assert report.timeline.bytes_transferred == sum(platform.bytes_moved.values())

    def test_no_saturation_on_benign_data(self):
        platform = Platform.with_tpus(1)
        ctx = OpenCtpu(platform)
        a = rand((200, 200), 5)
        tpu_gemm(ctx, a, a)
        tpu_add(ctx, a, a)
        ctx.sync()
        assert ctx.tensorizer.stats.saturated_values == 0

    def test_makespans_accumulate_across_syncs(self):
        platform = Platform.with_tpus(1)
        ctx = OpenCtpu(platform)
        a = rand((64, 64), 6)
        tpu_add(ctx, a, a)
        r1 = ctx.sync()
        tpu_add(ctx, a, a)
        r2 = ctx.sync()
        # The platform clock moves forward monotonically.
        assert platform.now == pytest.approx(
            r1.timeline.makespan + r2.timeline.makespan, rel=1e-9
        )


class TestDeterminism:
    def test_identical_programs_identical_timelines(self):
        def program():
            platform = Platform.with_tpus(4)
            ctx = OpenCtpu(platform)
            a = rand((256, 256), 7)
            tpu_gemm(ctx, a, a)
            tpu_relu(ctx, a)
            return ctx.sync()

        r1, r2 = program(), program()
        assert r1.wall_seconds == r2.wall_seconds
        assert r1.timeline.instructions == r2.timeline.instructions
        assert r1.timeline.bytes_transferred == r2.timeline.bytes_transferred
        assert r1.energy.total_joules == pytest.approx(r2.energy.total_joules)
