"""Sub-matrix partitioning helpers (paper §6.2.1).

Tensorizer "dynamically partition[s] tasks into Edge TPU instructions
working on their optimal data sizes/shapes (e.g., 128×128 matrices in
most arithmetic instructions)".  These helpers enumerate tile views and
stack tiles; they return *views* wherever possible (guide: use views,
not copies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np


@dataclass(frozen=True)
class Tile:
    """One tile of a 2-D partition."""

    #: Tile indices within the grid.
    row: int
    col: int
    #: Slices selecting this tile in the source matrix.
    rows: slice
    cols: slice

    @property
    def index(self) -> Tuple[int, int]:
        """(row, col) grid position."""
        return (self.row, self.col)

    def shape(self) -> Tuple[int, int]:
        """Height and width of the tile."""
        return (
            self.rows.stop - self.rows.start,
            self.cols.stop - self.cols.start,
        )


def grid_shape(shape: Tuple[int, int], tile: int) -> Tuple[int, int]:
    """Number of tiles along each axis for a matrix of *shape*."""
    if tile < 1:
        raise ValueError(f"tile size must be positive, got {tile}")
    rows, cols = shape
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix shape must be positive, got {shape}")
    return (-(-rows // tile), -(-cols // tile))


def iter_tiles(shape: Tuple[int, int], tile: int) -> Iterator[Tile]:
    """Enumerate tiles row-major; edge tiles may be smaller than *tile*."""
    rows, cols = shape
    n_r, n_c = grid_shape(shape, tile)
    for r in range(n_r):
        r0 = r * tile
        r1 = min(r0 + tile, rows)
        for c in range(n_c):
            c0 = c * tile
            c1 = min(c0 + tile, cols)
            yield Tile(row=r, col=c, rows=slice(r0, r1), cols=slice(c0, c1))


def stack_tiles(matrix: np.ndarray, tile: int) -> Tuple[np.ndarray, List[Tile]]:
    """Stack every tile of *matrix* into one ``(n_tiles, tile, tile)`` array.

    The batched lowering path operates on all tiles of an operand at
    once instead of dispatching one Python call per tile.  Tiles are
    stacked in :func:`iter_tiles` order (row-major); ragged edge tiles
    are zero-padded up to ``tile``×``tile``.  Padding is harmless for
    every batched kernel the Tensorizer uses: zeros do not change an
    absolute maximum, quantize to zero, add nothing to a sum, and the
    one padding-sensitive reduction (max) overwrites its padding with a
    sentinel via :func:`fill_padding`.

    The stack is assembled with at most four strided block copies (the
    full-tile body plus the ragged right/bottom/corner edges) — one
    pad+copy of the operand, not one copy per tile.
    """
    rows, cols = matrix.shape
    n_r, n_c = grid_shape(matrix.shape, tile)
    tiles = list(iter_tiles(matrix.shape, tile))
    full_r, full_c = rows // tile, cols // tile
    if full_r == n_r and full_c == n_c:
        # Evenly tiled: a single reshape/transpose copy, no padding.
        stacked = (
            matrix.reshape(n_r, tile, n_c, tile)
            .swapaxes(1, 2)
            .reshape(n_r * n_c, tile, tile)
        )
        return stacked, tiles
    buf = np.zeros((n_r, n_c, tile, tile), dtype=matrix.dtype)
    if full_r and full_c:
        buf[:full_r, :full_c] = (
            matrix[: full_r * tile, : full_c * tile]
            .reshape(full_r, tile, full_c, tile)
            .swapaxes(1, 2)
        )
    if full_c < n_c and full_r:
        w = cols - full_c * tile
        buf[:full_r, full_c, :, :w] = matrix[: full_r * tile, full_c * tile :].reshape(
            full_r, tile, w
        )
    if full_r < n_r and full_c:
        h = rows - full_r * tile
        buf[full_r, :full_c, :h, :] = (
            matrix[full_r * tile :, : full_c * tile].reshape(h, full_c, tile).swapaxes(0, 1)
        )
    if full_r < n_r and full_c < n_c:
        buf[full_r, full_c, : rows - full_r * tile, : cols - full_c * tile] = matrix[
            full_r * tile :, full_c * tile :
        ]
    return buf.reshape(n_r * n_c, tile, tile), tiles


def fill_padding(
    stacked: np.ndarray, shape: Tuple[int, int], tile: int, value
) -> np.ndarray:
    """Overwrite the padding region of a tile stack with *value* in place.

    Needed by padding-sensitive batched reductions (max): zero padding
    would win over all-negative tiles, so the max path re-fills it with
    the int8 minimum before reducing.
    """
    rows, cols = shape
    n_r, n_c = grid_shape(shape, tile)
    buf = stacked.reshape(n_r, n_c, tile, tile)
    h = rows - (n_r - 1) * tile
    w = cols - (n_c - 1) * tile
    if w < tile:
        buf[:, -1, :, w:] = value
    if h < tile:
        buf[-1, :, h:, :] = value
    return stacked


def tile_sizes(tiles: List[Tile]) -> np.ndarray:
    """Actual (unpadded) element count of each tile, as an int64 vector."""
    return np.array([t.shape()[0] * t.shape()[1] for t in tiles], dtype=np.int64)
