"""ShmRing: the bump-pointer allocator over one shared-memory segment."""

import numpy as np
import pytest

from repro.edgetpu.isa import Opcode
from repro.mp.messages import encode_request
from repro.mp.shm import ALIGN, RingFull, ShmRing
from repro.runtime.opqueue import OperationRequest, QuantMode


@pytest.fixture()
def ring():
    r = ShmRing.create(16 * ALIGN)
    yield r
    r.close()
    r.unlink()


class TestAlloc:
    def test_blocks_are_aligned(self, ring):
        offsets = [ring.alloc(n)[0] for n in (1, 63, 64, 65)]
        assert all(off % ALIGN == 0 for off in offsets)
        assert ring.alloc(1)[1] == ALIGN  # padded size

    def test_oversize_is_value_error_not_ringfull(self, ring):
        with pytest.raises(ValueError):
            ring.alloc(ring.capacity)

    def test_full_ring_raises_ringfull(self, ring):
        ring.alloc(14 * ALIGN)
        with pytest.raises(RingFull):
            ring.alloc(2 * ALIGN)

    def test_free_in_fifo_order_reclaims_everything(self, ring):
        offsets = [ring.alloc(ALIGN)[0] for _ in range(8)]
        for off in offsets:
            ring.free(off)
        assert ring.used_bytes == 0

    def test_out_of_order_free_sweeps_on_prefix_completion(self, ring):
        a = ring.alloc(ALIGN)[0]
        b = ring.alloc(ALIGN)[0]
        c = ring.alloc(ALIGN)[0]
        ring.free(c)
        ring.free(b)
        # a still live: nothing reclaimed yet (tail can't jump the hole).
        assert ring.used_bytes == 3 * ALIGN
        ring.free(a)
        assert ring.used_bytes == 0

    def test_wrap_burns_tail_gap_and_restarts_at_zero(self, ring):
        first = ring.alloc(6 * ALIGN)[0]
        ring.alloc(6 * ALIGN)
        ring.free(first)  # tail advances past the first block
        # 4*ALIGN remain at the end; a 5*ALIGN block must wrap to 0,
        # burning the tail gap as a pre-freed pad.
        off, _ = ring.alloc(5 * ALIGN)
        assert off == 0


class TestEncodeRollback:
    def test_partial_staging_frees_every_block_on_ringfull(self, ring):
        # Two operands of 4*ALIGN each; leave room for exactly one, so
        # encode_request stages the first and hits RingFull on the
        # second.  The failed call must leave ring accounting exactly
        # where it found it — a leak here compounds on every parked
        # retry until the ring is permanently full and the data plane
        # deadlocks with nothing in flight.
        ballast = ring.alloc(9 * ALIGN)[0]
        request = OperationRequest(
            task_id=1,
            opcode=Opcode.CONV2D,
            inputs=(
                np.zeros(4 * ALIGN, dtype=np.int8),
                np.zeros(4 * ALIGN, dtype=np.int8),
            ),
            quant=QuantMode.SCALE,
            attrs={"gemm": True},
        )
        with pytest.raises(RingFull):
            encode_request(ring, 1, request, None)
        # The half-staged operand is freed (it awaits the tail sweep,
        # so used_bytes holds it as a pad until the ballast goes).
        ring.free(ballast)
        assert ring.used_bytes == 0

    def test_array_attr_staging_rolls_back_operands_too(self, ring):
        # Both operands fit; the array-valued attr does not.  The
        # operands' blocks must be rolled back along with it.
        ballast = ring.alloc(7 * ALIGN)[0]
        request = OperationRequest(
            task_id=2,
            opcode=Opcode.CONV2D,
            inputs=(
                np.zeros(2 * ALIGN, dtype=np.int8),
                np.zeros(2 * ALIGN, dtype=np.int8),
            ),
            quant=QuantMode.SCALE,
            attrs={"gemm": True, "bias": np.zeros(6 * ALIGN, dtype=np.int8)},
        )
        with pytest.raises(RingFull):
            encode_request(ring, 2, request, None)
        ring.free(ballast)
        assert ring.used_bytes == 0


class TestDataMovement:
    def test_roundtrip_preserves_bytes_dtype_shape(self, ring):
        array = np.arange(24, dtype=np.float64).reshape(4, 6) / 7.0
        offset, nbytes, shape, dtype = ring.write_array(array)
        view = ring.read_view(offset, shape, dtype)
        assert view.shape == (4, 6)
        assert view.dtype == np.float64
        assert view.tobytes() == array.tobytes()

    def test_read_view_is_zero_copy(self, ring):
        offset, _, shape, dtype = ring.write_array(np.zeros(8, dtype=np.int8))
        view_a = ring.read_view(offset, shape, dtype)
        view_b = ring.read_view(offset, shape, dtype)
        view_a[0] = 42
        assert view_b[0] == 42  # same underlying segment bytes

    def test_attach_sees_owner_writes(self, ring):
        array = np.arange(5, dtype=np.int8)
        offset, _, shape, dtype = ring.write_array(array)
        other = ShmRing.attach(ring.shm.name, ring.capacity)
        try:
            assert other.read_view(offset, shape, dtype).tobytes() == array.tobytes()
            with pytest.raises(RuntimeError):
                other.unlink()  # only the owner may remove the name
        finally:
            other.close()
