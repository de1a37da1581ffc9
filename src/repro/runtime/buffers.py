"""OpenCtpu data-description objects (paper §5, Table 2).

``openctpu_alloc_dimension`` and ``openctpu_create_buffer`` become
:class:`Dimension` and :class:`Buffer`.  Buffers hold host-side raw data
(float64) and, for outputs, receive results at task completion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.errors import RuntimeAPIError

_buffer_ids = itertools.count()


@dataclass(frozen=True)
class Dimension:
    """Dimensionality descriptor (``openctpu_dimension``)."""

    sizes: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise RuntimeAPIError("dimension needs at least one axis")
        if any(s < 1 for s in self.sizes):
            raise RuntimeAPIError(f"dimension sizes must be positive, got {self.sizes}")

    @property
    def ndim(self) -> int:
        """Number of axes."""
        return len(self.sizes)

    @property
    def elems(self) -> int:
        """Total element count."""
        return int(np.prod(self.sizes))


def alloc_dimension(ndim: int, *sizes: int) -> Dimension:
    """``openctpu_alloc_dimension``: describe an *ndim*-dimensional tensor."""
    if ndim != len(sizes):
        raise RuntimeAPIError(f"expected {ndim} sizes, got {len(sizes)}")
    return Dimension(tuple(int(s) for s in sizes))


@dataclass
class Buffer:
    """A host-managed tensor buffer (``openctpu_buffer``).

    Input buffers are created around existing raw data; output buffers
    start empty and are filled when their producing task completes.
    """

    dimension: Dimension
    data: Optional[np.ndarray] = None
    name: str = field(default_factory=lambda: f"buf{next(_buffer_ids)}")

    def __post_init__(self) -> None:
        if self.data is not None:
            arr = np.asarray(self.data, dtype=np.float64)
            if arr.shape != self.dimension.sizes:
                raise RuntimeAPIError(
                    f"data shape {arr.shape} does not match dimension {self.dimension.sizes}"
                )
            self.data = arr

    @property
    def shape(self) -> Tuple[int, ...]:
        """The buffer's logical shape."""
        return self.dimension.sizes

    def require_data(self) -> np.ndarray:
        """The buffer's contents; raises if not yet produced."""
        if self.data is None:
            raise RuntimeAPIError(
                f"buffer {self.name!r} has no data (task not completed or input never filled)"
            )
        return self.data

    def fill(self, values: np.ndarray) -> None:
        """Store task results into this (output) buffer."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != self.dimension.sizes:
            raise RuntimeAPIError(
                f"result shape {arr.shape} does not match buffer {self.dimension.sizes}"
            )
        self.data = arr


def create_buffer(dimension: Dimension, data: Optional[np.ndarray] = None) -> Buffer:
    """``openctpu_create_buffer``: wrap raw data (or reserve an output)."""
    return Buffer(dimension=dimension, data=data)
