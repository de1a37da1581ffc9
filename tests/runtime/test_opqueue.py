"""Validation tests for the OPQ/IQ entry types."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.edgetpu.isa import Opcode
from repro.runtime.opqueue import (
    LoweredInstr,
    LoweredOperation,
    OperationRequest,
    QuantMode,
)


def make_instr(**overrides):
    defaults = dict(
        opcode=Opcode.ADD,
        task_id=0,
        group_key="",
        cache_key="",
        data_bytes=10,
        model_bytes=10,
        model_build_seconds=0.0,
        exec_seconds=1e-4,
        out_bytes=10,
    )
    defaults.update(overrides)
    return LoweredInstr(**defaults)


class TestLoweredInstr:
    def test_negative_bytes_rejected(self):
        for field in ("data_bytes", "model_bytes", "out_bytes"):
            with pytest.raises(ValueError, match=field):
                make_instr(**{field: -1})

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError, match="negative simulated time"):
            make_instr(exec_seconds=-1.0)
        with pytest.raises(ValueError, match="negative simulated time"):
            make_instr(model_build_seconds=-1.0)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count"):
            make_instr(count=0)

    def test_burst_exec_seconds(self):
        instr = make_instr(exec_seconds=2e-3, count=5)
        assert instr.burst_exec_seconds == pytest.approx(1e-2)

    def test_frozen(self):
        instr = make_instr()
        with pytest.raises(AttributeError):
            instr.count = 7  # type: ignore[misc]

    def test_equal_by_fields_hashable_and_a_dataclass(self):
        instr = make_instr(label="t", count=2)
        assert instr == make_instr(label="t", count=2) != make_instr(label="u", count=2)
        assert hash(instr) == hash(make_instr(label="t", count=2))
        assert [f.name for f in dataclasses.fields(instr)][-3:] == [
            "label", "model_cache_key", "count"
        ]
        assert [f.default for f in dataclasses.fields(instr)][-3:] == ["", "", 1]
        changed = dataclasses.replace(instr, count=5)
        assert changed.count == 5 and changed.label == "t"
        assert dataclasses.asdict(instr)["data_bytes"] == 10
        with pytest.raises(ValueError, match="count"):
            dataclasses.replace(instr, count=0)  # replace validates too

    def test_pickle_and_copy_round_trip(self):
        instr = make_instr(label="t", model_cache_key="m", count=3)
        assert pickle.loads(pickle.dumps(instr)) == instr
        assert copy.deepcopy(instr) == instr


class TestLoweredOperation:
    def _operation(self, instrs):
        request = OperationRequest(
            task_id=1, opcode=Opcode.ADD, inputs=(np.zeros((2, 2)),), quant=QuantMode.SCALE
        )
        return LoweredOperation(request, instrs, np.zeros((2, 2)), cpu_seconds=0.5)

    def test_instruction_count_expands_bursts(self):
        op = self._operation([make_instr(count=3), make_instr()])
        assert op.instruction_count == 4

    def test_total_exec_seconds_sums_bursts(self):
        op = self._operation([make_instr(exec_seconds=1e-3, count=2),
                              make_instr(exec_seconds=5e-4)])
        assert op.total_exec_seconds == pytest.approx(2.5e-3)

    def test_request_defaults(self):
        request = OperationRequest(
            task_id=2, opcode=Opcode.MUL, inputs=(np.ones(2),)
        )
        assert request.quant is QuantMode.SCALE
        assert request.depends_on == ()
        assert request.input_name == "" and request.output_name == ""
