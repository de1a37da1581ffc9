"""Tests for OpenCtpu buffers and the tiling helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeAPIError
from repro.runtime.buffers import alloc_dimension, create_buffer
from repro.runtime.tiling import grid_shape, iter_tiles


class TestDimension:
    def test_alloc_dimension_matches_paper_signature(self):
        dim = alloc_dimension(2, 16, 32)
        assert dim.ndim == 2
        assert dim.sizes == (16, 32)
        assert dim.elems == 512

    def test_mismatched_count_rejected(self):
        with pytest.raises(RuntimeAPIError):
            alloc_dimension(2, 16)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(RuntimeAPIError):
            alloc_dimension(1, 0)
        with pytest.raises(RuntimeAPIError):
            alloc_dimension(0)


class TestBuffer:
    def test_input_buffer_wraps_data(self):
        dim = alloc_dimension(2, 2, 3)
        buf = create_buffer(dim, np.arange(6).reshape(2, 3))
        assert buf.data is not None
        assert buf.shape == (2, 3)

    def test_output_buffer_starts_empty_then_fills(self):
        buf = create_buffer(alloc_dimension(1, 4))
        assert buf.data is None
        with pytest.raises(RuntimeAPIError, match="no data"):
            buf.require_data()
        buf.fill(np.ones(4))
        np.testing.assert_array_equal(buf.require_data(), np.ones(4))

    def test_shape_mismatch_rejected(self):
        dim = alloc_dimension(2, 2, 2)
        with pytest.raises(RuntimeAPIError):
            create_buffer(dim, np.ones(3))
        buf = create_buffer(dim)
        with pytest.raises(RuntimeAPIError):
            buf.fill(np.ones((3, 3)))

    def test_buffer_names_are_unique(self):
        dim = alloc_dimension(1, 1)
        assert create_buffer(dim).name != create_buffer(dim).name


class TestTiling:
    def test_grid_shape_exact_division(self):
        assert grid_shape((256, 384), 128) == (2, 3)

    def test_grid_shape_rounds_up(self):
        assert grid_shape((129, 127), 128) == (2, 1)

    def test_iter_tiles_covers_matrix_exactly_once(self):
        shape = (300, 200)
        cover = np.zeros(shape, dtype=int)
        for t in iter_tiles(shape, 128):
            cover[t.rows, t.cols] += 1
        assert (cover == 1).all()

    def test_edge_tiles_are_smaller(self):
        tiles = list(iter_tiles((130, 130), 128))
        assert tiles[0].shape() == (128, 128)
        assert tiles[-1].shape() == (2, 2)

    @given(
        st.integers(1, 300),
        st.integers(1, 300),
        st.integers(1, 128),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_tiles_partition(self, rows, cols, tile):
        total = sum(t.shape()[0] * t.shape()[1] for t in iter_tiles((rows, cols), tile))
        assert total == rows * cols

    def test_invalid_tile_rejected(self):
        with pytest.raises(ValueError):
            grid_shape((4, 4), 0)
        with pytest.raises(ValueError):
            grid_shape((0, 4), 2)
