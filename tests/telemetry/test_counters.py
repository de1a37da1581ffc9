"""CounterRegistry and the adapters over the stack's counter families."""

import numpy as np
import pytest

from repro.edgetpu.device import EdgeTPUDevice
from repro.edgetpu.isa import Instruction, Opcode
from repro.edgetpu.memory import OnChipMemory
from repro.edgetpu.quantize import QuantParams
from repro.runtime.tensorizer import TensorizerStats
from repro.serve.metrics import ServingMetrics
from repro.telemetry import (
    CounterRegistry,
    device_counters,
    memory_counters,
    serving_counters,
    tensorizer_counters,
)


class TestRegistry:
    def test_register_and_snapshot(self):
        reg = CounterRegistry()
        state = {"x": 0}
        reg.register("a", lambda: state)
        assert "a" in reg
        assert len(reg) == 1
        state["x"] = 5  # sampled lazily, not at registration
        assert reg.snapshot() == {"a": {"x": 5}}
        assert reg.flat() == {"a.x": 5}

    def test_duplicate_name_rejected(self):
        reg = CounterRegistry()
        reg.register("a", lambda: {})
        with pytest.raises(ValueError):
            reg.register("a", lambda: {})

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            CounterRegistry().register("", lambda: {})

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            CounterRegistry().register("a", {"not": "callable"})


class TestAdapters:
    def test_tensorizer_counters(self):
        stats = TensorizerStats()
        source = tensorizer_counters(stats)
        before = source()
        stats.operations_lowered += 3
        after = source()
        assert after["operations_lowered"] == before["operations_lowered"] + 3

    def test_memory_counters_track_hits_and_misses(self):
        memory = OnChipMemory(capacity_bytes=1 << 16)
        memory.ensure("chunk0", 128)  # miss + alloc
        memory.ensure("chunk0", 128)  # hit
        memory.ensure("chunk0", 128)  # hit
        counters = memory_counters(memory)()
        assert counters["misses"] == 1
        assert counters["hits"] == 2
        assert counters["regions"] == 1
        assert counters["used_bytes"] >= 128

    def test_device_counters_track_lifetime_saturation(self):
        device = EdgeTPUDevice("tpu0")
        source = device_counters(device)
        assert source()["saturated_values"] == 0
        # An ADD whose quantized sum exceeds the int8 rails saturates.
        block = np.full((2, 2), 100, dtype=np.int8)
        instr = Instruction(
            Opcode.ADD,
            block,
            QuantParams(1.0),
            block,
            QuantParams(1.0),
            out_params=QuantParams(1.0),
        )
        result = device.execute(instr)
        assert result.saturated > 0
        counters = source()
        assert counters["saturated_values"] == result.saturated
        assert counters["instructions_executed"] == 1
        assert counters["busy_seconds"] > 0

    def test_serving_counters(self):
        metrics = ServingMetrics()
        metrics.submitted = 4
        metrics.record_completion(0.1)
        counters = serving_counters(metrics)()
        assert counters["submitted"] == 4
        assert counters["completed"] == 1
        # Every value is a plain scalar (JSON-friendly, flat()-able).
        assert all(isinstance(v, (int, float)) for v in counters.values())

    def test_flat_combines_all_sources(self):
        reg = CounterRegistry()
        reg.register("tensorizer", tensorizer_counters(TensorizerStats()))
        reg.register("serving", serving_counters(ServingMetrics()))
        reg.register("memory.tpu0", memory_counters(OnChipMemory(1 << 16)))
        flat = reg.flat()
        assert "tensorizer.operations_lowered" in flat
        assert "serving.completed" in flat
        assert "memory.tpu0.hits" in flat
