"""Tests for the OpenCtpu programming interface (paper §5, Table 2)."""

import numpy as np
import pytest

from repro.errors import RuntimeAPIError, TaskError
from repro.host.platform import Platform
from repro.metrics import rmse_percent
from repro.runtime import OpenCtpu, QuantMode


@pytest.fixture()
def ctx():
    return OpenCtpu(Platform.with_tpus(2))


def rand(shape, seed=0, lo=0.0, hi=4.0):
    return np.random.default_rng(seed).uniform(lo, hi, shape)


class TestTable2API:
    def test_paper_code_sample_flow(self, ctx):
        """Mirror the Fig. 3 sample: dims, buffers, kernel, enqueue, sync."""
        size = 64
        a = rand((size, size), seed=1)
        b = rand((size, size), seed=2)

        dim = ctx.alloc_dimension(2, size, size)
        tensor_a = ctx.create_buffer(dim, a)
        tensor_b = ctx.create_buffer(dim, b)
        tensor_c = ctx.create_buffer(ctx.alloc_dimension(2, size, size))

        def kernel(buf_a, buf_b, buf_c):
            ctx.invoke_operator("conv2D", buf_a, buf_b, out=buf_c, gemm=True)

        task = ctx.enqueue(kernel, tensor_a, tensor_b, tensor_c)
        report = ctx.sync()

        assert tensor_c.data is not None
        assert rmse_percent(tensor_c.require_data(), a @ b) < 1.0
        assert report.wall_seconds > 0
        assert report.energy.total_joules > 0
        assert isinstance(task, int)

    def test_invoke_by_opcode_name_or_enum(self, ctx):
        from repro.edgetpu.isa import Opcode

        a = rand((8, 8))
        r1 = ctx.invoke_operator("ReLu", a)
        r2 = ctx.invoke_operator(Opcode.RELU, a)
        np.testing.assert_array_equal(r1, r2)

    def test_unknown_operator_rejected(self, ctx):
        with pytest.raises(RuntimeAPIError, match="unknown operator"):
            ctx.invoke_operator("transmogrify", rand((4, 4)))

    def test_sync_without_work_rejected(self, ctx):
        with pytest.raises(RuntimeAPIError, match="no pending"):
            ctx.sync()

    def test_wait_unknown_task_rejected(self, ctx):
        with pytest.raises(TaskError):
            ctx.wait(999)

    def test_wait_triggers_sync_for_pending_task(self, ctx):
        a = rand((16, 16))

        def kernel():
            ctx.invoke_operator("add", a, a)

        task = ctx.enqueue(kernel)
        report = ctx.wait(task)
        assert report.wall_seconds > 0
        assert ctx.pending_operations == 0

    def test_wait_after_sync_returns_last_report(self, ctx):
        task = ctx.enqueue(lambda: ctx.invoke_operator("add", rand((8, 8)), rand((8, 8))))
        first = ctx.sync()
        assert ctx.wait(task) is first

    def test_nested_enqueue_rejected(self, ctx):
        def outer():
            ctx.enqueue(lambda: None)

        with pytest.raises(RuntimeAPIError, match="nested"):
            ctx.enqueue(outer)

    def test_operators_in_one_kernel_serialize_under_one_task(self, ctx):
        a = rand((16, 16))

        def kernel():
            r1 = ctx.invoke_operator("add", a, a)
            ctx.invoke_operator("mul", r1, a)

        ctx.enqueue(kernel)
        # Both operations share the kernel's task id.
        tasks = {op.request.task_id for op in ctx._pending}
        assert len(tasks) == 1

    def test_implicit_task_for_bare_invoke(self, ctx):
        ctx.invoke_operator("add", rand((8, 8)), rand((8, 8)))
        ctx.invoke_operator("add", rand((8, 8)), rand((8, 8)))
        tasks = {op.request.task_id for op in ctx._pending}
        assert len(tasks) == 2

    def test_quant_mode_flag_propagates(self, ctx):
        a = rand((8, 8))
        ctx.invoke_operator("add", a, a, quant=QuantMode.GLOBAL)
        assert ctx._pending[-1].request.quant is QuantMode.GLOBAL

    def test_multiple_syncs_accumulate_independent_reports(self, ctx):
        a = rand((16, 16))
        ctx.invoke_operator("add", a, a)
        r1 = ctx.sync()
        ctx.invoke_operator("add", a, a)
        r2 = ctx.sync()
        assert r1.wall_seconds > 0 and r2.wall_seconds > 0
        # Second report covers only the second batch.
        assert r2.wall_seconds < r1.wall_seconds * 3


class TestTpuTensor:
    def test_overloaded_operators_match_numpy(self, ctx):
        a = rand((32, 32), seed=3)
        b = rand((32, 32), seed=4)
        ta, tb = ctx.tensor(a), ctx.tensor(b)
        assert rmse_percent((ta + tb).numpy(), a + b) < 1.0
        assert rmse_percent((ta - tb).numpy(), a - b) < 1.0
        assert rmse_percent((ta * tb).numpy(), a * b) < 1.0

    def test_matmul_uses_conv2d_gemm(self, ctx):
        a = rand((48, 48), seed=5)
        b = rand((48, 48), seed=6)
        out = (ctx.tensor(a) @ ctx.tensor(b)).numpy()
        assert rmse_percent(out, a @ b) < 1.0

    def test_scalar_broadcast(self, ctx):
        a = rand((16, 16), seed=7)
        out = (ctx.tensor(a) + 1.0).numpy()
        assert rmse_percent(out, a + 1.0) < 1.0

    def test_unary_methods(self, ctx):
        a = rand((16, 16), seed=8, lo=-2, hi=2)
        t = ctx.tensor(a)
        assert np.abs(t.tanh().numpy() - np.tanh(a)).max() < 0.03
        assert rmse_percent(t.relu().numpy(), np.maximum(a, 0)) < 1.0
        assert t.mean() == pytest.approx(a.mean(), abs=0.05)
        assert t.max() == pytest.approx(a.max(), rel=0.02)

    def test_mixing_contexts_rejected(self):
        ctx1 = OpenCtpu(Platform.with_tpus(1))
        ctx2 = OpenCtpu(Platform.with_tpus(1))
        with pytest.raises(RuntimeAPIError, match="different contexts"):
            _ = ctx1.tensor(rand((4, 4))) + ctx2.tensor(rand((4, 4)))

    def test_shape_property(self, ctx):
        assert ctx.tensor(rand((3, 5))).shape == (3, 5)
