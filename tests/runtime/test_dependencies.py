"""Tests for the §5 dataflow execution model: intra-task serialization
and cross-task ``depends_on`` ordering."""

import numpy as np
import pytest

from repro.errors import TaskError
from repro.host.platform import Platform
from repro.runtime import OpenCtpu


def rand(shape, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 4.0, shape)


def instruction_spans(platform, opname=None):
    """(start, end) of instruction trace records, in time order."""
    records = [
        r
        for r in platform.tracer
        if r.kind == "instruction" and (opname is None or r.meta.get("opcode") == opname)
    ]
    return sorted((r.start, r.end) for r in records)


class TestIntraTaskSerialization:
    def test_operators_in_one_kernel_serialize(self):
        """§5: "all TPU operations within a task will perform in serial"."""
        platform = Platform.with_tpus(4)
        ctx = OpenCtpu(platform)
        a = rand((64, 64))

        def kernel():
            ctx.invoke_operator("add", a, a)
            ctx.invoke_operator("mul", a, a)

        ctx.enqueue(kernel)
        ctx.sync()
        adds = instruction_spans(platform, "add")
        muls = instruction_spans(platform, "mul")
        # Every mul starts after every add finished.
        assert min(s for s, _e in muls) >= max(e for _s, e in adds) - 1e-12

    def test_independent_tasks_overlap(self):
        """§5: "tasks can perform out of order in parallel"."""
        platform = Platform.with_tpus(2)
        ctx = OpenCtpu(platform)
        a = rand((128, 128))  # one tile per op, so each op is one instruction
        ctx.enqueue(lambda: ctx.invoke_operator("add", a, a))
        ctx.enqueue(lambda: ctx.invoke_operator("mul", a, a))
        ctx.sync()
        adds = instruction_spans(platform, "add")
        muls = instruction_spans(platform, "mul")
        # The mul lands on the second device and starts before the add
        # ends: genuine out-of-order parallelism.
        assert min(s for s, _e in muls) < max(e for _s, e in adds)


class TestDependsOn:
    def test_dependent_op_waits(self):
        platform = Platform.with_tpus(4)
        ctx = OpenCtpu(platform)
        a = rand((256, 256))
        ctx.invoke_operator("add", a, a)
        first = ctx.last_task
        ctx.invoke_operator("mul", a, a, depends_on=[first])
        ctx.sync()
        adds = instruction_spans(platform, "add")
        muls = instruction_spans(platform, "mul")
        assert min(s for s, _e in muls) >= max(e for _s, e in adds) - 1e-12

    def test_chain_serializes_even_on_many_devices(self):
        platform = Platform.with_tpus(8)
        ctx = OpenCtpu(platform)
        a = rand((128, 128))
        prev = None
        for _ in range(4):
            deps = [prev] if prev is not None else []
            ctx.invoke_operator("mul", a, a, depends_on=deps)
            prev = ctx.last_task
        report = ctx.sync()
        serial = report.timeline
        # Same chain without dependencies on the same machine is faster.
        ctx2 = OpenCtpu(Platform.with_tpus(8))
        for _ in range(4):
            ctx2.invoke_operator("mul", a, a)
        parallel = ctx2.sync().timeline
        assert serial.makespan > parallel.makespan * 1.5

    def test_unknown_dependency_rejected(self):
        ctx = OpenCtpu(Platform.with_tpus(1))
        with pytest.raises(TaskError, match="unknown task"):
            ctx.invoke_operator("add", rand((8, 8)), rand((8, 8)), depends_on=[999])

    def test_self_dependency_rejected(self):
        ctx = OpenCtpu(Platform.with_tpus(1))

        def kernel():
            ctx.invoke_operator("add", rand((8, 8)), rand((8, 8)))
            task = ctx.last_task
            with pytest.raises(TaskError, match="depend on itself"):
                ctx.invoke_operator("mul", rand((8, 8)), rand((8, 8)), depends_on=[task])

        ctx.enqueue(kernel)

    def test_last_task_requires_an_invoke(self):
        from repro.errors import RuntimeAPIError

        ctx = OpenCtpu(Platform.with_tpus(1))
        with pytest.raises(RuntimeAPIError, match="no operator"):
            _ = ctx.last_task

    def test_dependencies_preserve_results(self):
        ctx = OpenCtpu(Platform.with_tpus(2))
        a, b = rand((64, 64), 1), rand((64, 64), 2)
        c = ctx.invoke_operator("add", a, b)
        dep = ctx.last_task
        d = ctx.invoke_operator("mul", c, a, depends_on=[dep])
        ctx.sync()
        assert np.abs(d - (c * a)).max() < np.abs(c * a).max() * 0.02

    def test_diamond_dependency(self):
        """A -> (B, C) -> D orders correctly."""
        platform = Platform.with_tpus(4)
        ctx = OpenCtpu(platform)
        a = rand((128, 128))
        ctx.invoke_operator("add", a, a)
        t_a = ctx.last_task
        ctx.invoke_operator("mul", a, a, depends_on=[t_a])
        t_b = ctx.last_task
        ctx.invoke_operator("sub", a, a, depends_on=[t_a])
        t_c = ctx.last_task
        ctx.invoke_operator("ReLu", a, depends_on=[t_b, t_c])
        ctx.sync()
        adds = instruction_spans(platform, "add")
        relus = instruction_spans(platform, "ReLu")
        mids = instruction_spans(platform, "mul") + instruction_spans(platform, "sub")
        assert min(s for s, _ in mids) >= max(e for _, e in adds) - 1e-12
        assert min(s for s, _ in relus) >= max(e for _, e in mids) - 1e-12
