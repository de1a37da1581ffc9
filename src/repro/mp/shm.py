"""Shared-memory ring allocators for the multi-process data plane.

One :class:`ShmRing` wraps one ``multiprocessing.shared_memory`` segment
and hands out bump-pointer blocks inside it.  Int8 tiles and float
results cross the parent/worker boundary as *offsets into the ring*
(zero-copy ``numpy`` views on both sides) instead of pickled ndarrays —
the GPTPU host-dispatch analogue of pinned DMA staging buffers.

Roles are asymmetric on purpose:

* the **owner** (always the parent process) creates and eventually
  unlinks the segment, so the name disappears from ``/dev/shm`` even
  when a worker is SIGKILL'd mid-request;
* the **producer** (parent for request rings, worker for result rings)
  runs the allocator — ``alloc`` / ``free`` are producer-local state,
  never shared — and the consumer only materializes read views.

Blocks never wrap: an allocation that does not fit before the end of
the segment burns the tail gap (recorded as an already-freed pad block)
and restarts at offset 0.  ``free`` may run out of allocation order;
the tail only advances over the longest freed prefix, preserving the
invariant that live bytes are exactly the ring span from tail to head.
"""

from __future__ import annotations

from collections import deque
from multiprocessing import shared_memory
from typing import Deque, Optional, Set, Tuple

import numpy as np

#: Block alignment (bytes); int8 tile rows stay cache-line aligned.
ALIGN = 64


class RingFull(Exception):
    """No contiguous span of the requested size is free right now.

    Not an error condition: the producer parks the shipment and retries
    when the consumer's next completion frees space.
    """


class ShmRing:
    """Bump-pointer ring allocator over one shared-memory segment."""

    def __init__(
        self, shm: shared_memory.SharedMemory, capacity: int, owner: bool
    ) -> None:
        self.shm = shm
        self.capacity = capacity
        self.owner = owner
        self._head = 0
        self._tail = 0
        self._used = 0
        #: Live + pad blocks in allocation order: (offset, padded size).
        self._order: Deque[Tuple[int, int]] = deque()
        self._freed: Set[int] = set()
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def create(cls, capacity: int, name: Optional[str] = None) -> "ShmRing":
        """Create a fresh segment; the caller owns (and must unlink) it."""
        if capacity < ALIGN:
            raise ValueError(f"ring capacity must be >= {ALIGN}, got {capacity}")
        shm = shared_memory.SharedMemory(create=True, size=capacity, name=name)
        return cls(shm, capacity, owner=True)

    @classmethod
    def attach(cls, name: str, capacity: int) -> "ShmRing":
        """Attach to an existing segment without adopting its lifecycle.

        The parent owns create/unlink; a worker must not let its
        ``resource_tracker`` adopt the segment, or a worker exit (clean
        or SIGKILL'd) would unlink it out from under the parent and
        print leak warnings.  Python 3.13+ registers attachments unless
        ``track=False``; earlier versions never track attachments, so
        the plain constructor is already safe there.
        """
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13: no track parameter
            shm = shared_memory.SharedMemory(name=name)
        return cls(shm, capacity, owner=False)

    def close(self) -> None:
        """Unmap this process's view (unlink separately, owner only)."""
        if self._closed:
            return
        self._closed = True
        try:
            self.shm.close()
        except BufferError:
            # Live numpy views still reference the mapping (e.g. a
            # worker torn down mid-lowering); the OS reclaims it at
            # process exit and the owner's unlink removes the name.
            pass

    def unlink(self) -> None:
        """Remove the segment name (owner only; idempotent)."""
        if not self.owner:
            raise RuntimeError("only the owning side may unlink a ring")
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass

    # -- allocator (producer side only) ---------------------------------

    @staticmethod
    def _pad(nbytes: int) -> int:
        return max(ALIGN, (int(nbytes) + ALIGN - 1) & ~(ALIGN - 1))

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated (pads included)."""
        return self._used

    def alloc(self, nbytes: int) -> Tuple[int, int]:
        """Reserve a contiguous block; returns ``(offset, padded size)``.

        Raises :class:`RingFull` when no span fits, ``ValueError`` when
        the request could never fit an empty ring.
        """
        n = self._pad(nbytes)
        if n > self.capacity - ALIGN:
            raise ValueError(
                f"block of {nbytes} bytes exceeds ring capacity {self.capacity}"
            )
        if self._used == 0:
            self._head = self._tail = 0
        if self._used + n > self.capacity - ALIGN:
            raise RingFull(f"{n} bytes requested, {self._used} in use")
        if self._head >= self._tail:
            if self._head + n <= self.capacity:
                offset = self._head
            else:
                # Burn the tail-end gap as a pre-freed pad block and
                # wrap; the gap participates in `used` until the tail
                # sweep crosses it, keeping accounting exact.
                gap = self.capacity - self._head
                if self._used + gap + n > self.capacity - ALIGN or n > self._tail:
                    raise RingFull(f"wrap needs {gap + n} bytes")
                self._order.append((self._head, gap))
                self._freed.add(self._head)
                self._used += gap
                offset = 0
        else:
            if self._head + n > self._tail:
                raise RingFull(f"{n} bytes requested at head {self._head}")
            offset = self._head
        self._head = (offset + n) % self.capacity
        self._order.append((offset, n))
        self._used += n
        return offset, n

    def free(self, offset: int) -> None:
        """Release one block; the tail sweeps contiguous freed blocks."""
        self._freed.add(offset)
        while self._order and self._order[0][0] in self._freed:
            off, size = self._order.popleft()
            self._freed.discard(off)
            self._used -= size
            self._tail = (off + size) % self.capacity

    # -- data movement --------------------------------------------------

    def write_array(self, array: np.ndarray) -> Tuple[int, int, tuple, str]:
        """Copy *array* into a fresh block; returns a shippable ref.

        The ref is ``(offset, nbytes, shape, dtype)`` — everything the
        other side needs to materialize a zero-copy view.
        """
        contiguous = np.ascontiguousarray(array)
        nbytes = max(contiguous.nbytes, 1)
        offset, _ = self.alloc(nbytes)
        if contiguous.nbytes:
            view = np.ndarray(
                contiguous.shape,
                dtype=contiguous.dtype,
                buffer=self.shm.buf,
                offset=offset,
            )
            view[...] = contiguous
        return offset, nbytes, tuple(contiguous.shape), contiguous.dtype.str

    def read_view(self, offset: int, shape: tuple, dtype: str) -> np.ndarray:
        """Zero-copy ndarray view of a block written by the other side."""
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=self.shm.buf, offset=offset)
