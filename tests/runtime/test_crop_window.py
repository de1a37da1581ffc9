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
