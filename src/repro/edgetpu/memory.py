"""The Edge TPU's 8 MB on-chip data memory (paper §2.2).

TPUs "incorporate large on-chip memory to hold the intermediate results
that later iterations reuse" (§2.1).  The GPTPU executor exploits this by
keeping an input chunk resident while it sweeps many small models over
it (the conv2D GEMM inner loop), so the allocator tracks named regions
and supports oldest-first eviction of evictable regions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.errors import OutOfDeviceMemoryError


@dataclass(frozen=True)
class Region:
    """One named allocation in on-chip memory."""

    name: str
    nbytes: int
    #: Evictable regions may be dropped to make room (cached inputs);
    #: non-evictable ones are pinned (in-flight instruction operands).
    evictable: bool


class OnChipMemory:
    """A named-region allocator over a fixed capacity."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._regions: "OrderedDict[str, Region]" = OrderedDict()
        #: Running allocation total.  ``alloc`` consults ``free_bytes``
        #: inside its eviction loop, so recomputing the sum over all
        #: resident regions there is quadratic in region count — the
        #: dominant serving-path cost under sustained load.
        self._used = 0
        #: Cumulative eviction count, for cache-behaviour assertions.
        self.evictions = 0
        #: Residency hits/misses seen by :meth:`ensure` (telemetry).
        self.hits = 0
        self.misses = 0

    # -- inspection -----------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated."""
        return self._used

    @property
    def free_bytes(self) -> int:
        """Bytes available without eviction."""
        return self.capacity_bytes - self.used_bytes

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    def __iter__(self) -> Iterator[Region]:
        return iter(self._regions.values())

    def __len__(self) -> int:
        return len(self._regions)

    # -- allocation -------------------------------------------------------------

    def alloc(self, name: str, nbytes: int, evictable: bool = True) -> Region:
        """Allocate a named region, evicting old evictable regions if needed.

        Raises
        ------
        OutOfDeviceMemoryError
            If the request exceeds capacity even after evicting everything
            evictable.
        ValueError
            If the name is already allocated or the size is invalid.
        """
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        if nbytes > self.capacity_bytes:
            raise OutOfDeviceMemoryError(
                f"region {name!r} ({nbytes} B) exceeds on-chip capacity ({self.capacity_bytes} B)"
            )
        while nbytes > self.free_bytes:
            if not self._evict_one():
                raise OutOfDeviceMemoryError(
                    f"cannot fit region {name!r} ({nbytes} B): {self.free_bytes} B free "
                    f"and nothing evictable"
                )
        region = Region(name, nbytes, evictable)
        self._regions[name] = region
        self._used += nbytes
        return region

    def ensure(self, name: str, nbytes: int, evictable: bool = True) -> bool:
        """Allocate *name* unless already resident.

        Returns True when the region was already resident (a "cache hit"
        — no transfer needed), False when it was freshly allocated.
        """
        if name in self._regions:
            self._regions.move_to_end(name)  # refresh recency
            self.hits += 1
            return True
        self.misses += 1
        self.alloc(name, nbytes, evictable)
        return False

    def free(self, name: str) -> None:
        """Release one region."""
        if name not in self._regions:
            raise KeyError(f"region {name!r} not allocated")
        self._used -= self._regions[name].nbytes
        del self._regions[name]

    def clear(self) -> None:
        """Release every region (device reset between tasks)."""
        self._regions.clear()
        self._used = 0

    def _evict_one(self) -> bool:
        for name, region in self._regions.items():
            if region.evictable:
                del self._regions[name]
                self._used -= region.nbytes
                self.evictions += 1
                return True
        return False

    def snapshot(self) -> Tuple[Region, ...]:
        """Resident regions, oldest first."""
        return tuple(self._regions.values())
