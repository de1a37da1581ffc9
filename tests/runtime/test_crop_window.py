"""crop quantizes only its box, at the whole operand's scale.

The box is all the device returns, so the rule quantizes and executes
just the box; its scale, modeled bytes and modeled seconds still come
from the whole operand, exactly as when the whole operand was quantized
and shipped.
"""

import numpy as np
import pytest

from repro.edgetpu import functional
from repro.edgetpu.isa import Opcode
from repro.edgetpu.quantize import dequantize, params_for_data, quantize
from repro.errors import UnsupportedInstructionError
from repro.runtime.opqueue import QuantMode
from repro.runtime.tensorizer import Tensorizer
from tests.runtime.test_vectorized_equivalence import make_request


@pytest.mark.parametrize("quant", [QuantMode.SCALE, QuantMode.GLOBAL])
@pytest.mark.parametrize("box", [(0, 0, 40, 30), (17, 5, 60, 90), (0, 0, 77, 95), (76, 94, 1, 1)])
def test_box_equals_cropping_the_whole_quantized_operand(quant, box):
    a = np.random.default_rng(4).normal(size=(77, 95)) * 3
    tz = Tensorizer()
    lowered = tz.lower(make_request(Opcode.CROP, a, quant=quant, crop_box=box))
    p = params_for_data(a)
    r0, c0, h, w = box
    want = dequantize(quantize(a, p)[r0 : r0 + h, c0 : c0 + w], p)
    assert lowered.result.tobytes() == want.tobytes()
    (instr,) = lowered.instrs
    assert instr.data_bytes == a.size
    assert instr.out_bytes == h * w
    assert instr.exec_seconds == tz.timing.instruction_seconds(Opcode.CROP, h * w)


@pytest.mark.parametrize("box", [(0, 0, 78, 1), (-1, 0, 2, 2), (0, 90, 2, 6), (0, 0, 0, 3)])
def test_box_outside_the_operand_is_rejected_as_before(box):
    a = np.ones((77, 95))
    with pytest.raises(UnsupportedInstructionError, match="outside data shape"):
        Tensorizer().lower(make_request(Opcode.CROP, a, crop_box=box))
    with pytest.raises(UnsupportedInstructionError, match="outside data shape"):
        functional.crop(a, box, 1.0)


class TestOperandRangeMemo:
    """A read-only operand's range is scanned once for all its crops."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        real = Tensorizer._input_params

        def spy(self, request, *tiles):
            calls.append(tiles)
            return real(self, request, *tiles)

        monkeypatch.setattr(Tensorizer, "_input_params", spy)
        return calls

    @staticmethod
    def _crops(tz, a, quant=QuantMode.SCALE):
        """The four quadrant crops LUD makes of *a*."""
        h, w = a.shape[0] // 2, a.shape[1] // 2
        boxes = [(0, 0, h, w), (0, w, h, a.shape[1] - w), (h, 0, a.shape[0] - h, w),
                 (h, w, a.shape[0] - h, a.shape[1] - w)]
        return [tz.lower(make_request(Opcode.CROP, a, quant=quant, crop_box=b)) for b in boxes]

    @staticmethod
    def _same(got, want):
        for g, w in zip(got, want):
            assert g.result.tobytes() == w.result.tobytes()
            assert g.instrs == w.instrs

    @pytest.mark.parametrize("quant", [QuantMode.SCALE, QuantMode.GLOBAL])
    def test_read_only_operand_is_scanned_once(self, scans, quant):
        a = np.random.default_rng(5).normal(size=(77, 95))
        want = self._crops(Tensorizer(), a.copy(), quant)
        a.flags.writeable = False
        scans.clear()
        self._same(self._crops(Tensorizer(), a, quant), want)
        assert len(scans) == 1
        # A sub-matrix view of it is read-only all the way down: each view
        # object is scanned once, and a non-contiguous one is not copied.
        sub = a[:50, 10:70]
        self._same(self._crops(Tensorizer(), sub, quant),
                   self._crops(Tensorizer(), sub.copy(), quant))
        assert len(scans) == 1 + 1 + 4

    def test_writable_operand_is_scanned_every_time(self, scans):
        a = np.random.default_rng(6).normal(size=(77, 95))
        self._crops(Tensorizer(), a)
        assert len(scans) == 4

    def test_read_only_view_of_a_writable_base_is_scanned_every_time(self, scans):
        base = np.random.default_rng(7).normal(size=(77, 95))
        view = base[:]
        view.flags.writeable = False
        tz = Tensorizer()
        box = (0, 0, 30, 40)
        tz.lower(make_request(Opcode.CROP, view, crop_box=box))
        base[3, 4] = 1e3  # a new maximum, written through the base
        got = tz.lower(make_request(Opcode.CROP, view, crop_box=box))
        want = Tensorizer().lower(make_request(Opcode.CROP, base.copy(), crop_box=box))
        assert got.result.tobytes() == want.result.tobytes()
        assert len(scans) == 3

    def test_lud_scans_one_matrix_per_recursion_level(self, scans):
        from repro.apps.lud import LUDApp
        from repro.host.platform import Platform
        from repro.runtime.api import OpenCtpu

        app = LUDApp(leaf=16)
        inputs = app.generate(seed=2, n=128)
        assert not inputs["a"].flags.writeable
        app.run_gptpu(inputs, OpenCtpu(Platform.with_tpus(2)))
        crops = sum(1 for tiles in scans if len(tiles) == 1)
        # n = 128, 64, 32 split (7 matrices: 1 + 2 + 4); each is cropped
        # four times and scanned once.
        assert crops == 7
