"""Tests for the 8 MB on-chip memory allocator."""

import pytest

from repro.errors import OutOfDeviceMemoryError
from repro.edgetpu.memory import OnChipMemory


def test_alloc_and_free_track_usage():
    mem = OnChipMemory(1000)
    mem.alloc("a", 400)
    mem.alloc("b", 300)
    assert mem.used_bytes == 700
    assert mem.free_bytes == 300
    mem.free("a")
    assert mem.used_bytes == 300
    assert "a" not in mem and "b" in mem


def test_request_larger_than_capacity_raises():
    mem = OnChipMemory(100)
    with pytest.raises(OutOfDeviceMemoryError, match="exceeds on-chip capacity"):
        mem.alloc("huge", 101)


def test_eviction_frees_oldest_evictable_first():
    mem = OnChipMemory(100)
    mem.alloc("old", 50)
    mem.alloc("new", 50)
    mem.alloc("incoming", 60)  # evicts "old" then "new"
    assert "incoming" in mem
    assert mem.evictions == 2


def test_pinned_regions_survive_eviction():
    mem = OnChipMemory(100)
    mem.alloc("pinned", 50, evictable=False)
    mem.alloc("cache", 50)
    mem.alloc("incoming", 50)
    assert "pinned" in mem and "cache" not in mem


def test_all_pinned_and_full_raises():
    mem = OnChipMemory(100)
    mem.alloc("a", 60, evictable=False)
    with pytest.raises(OutOfDeviceMemoryError, match="nothing evictable"):
        mem.alloc("b", 60)


def test_duplicate_name_rejected():
    mem = OnChipMemory(100)
    mem.alloc("x", 10)
    with pytest.raises(ValueError, match="already allocated"):
        mem.alloc("x", 10)


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        OnChipMemory(0)
    mem = OnChipMemory(10)
    with pytest.raises(ValueError):
        mem.alloc("z", 0)


def test_ensure_reports_cache_hits():
    mem = OnChipMemory(100)
    assert mem.ensure("chunk", 40) is False  # miss: allocated now
    assert mem.ensure("chunk", 40) is True  # hit: already resident
    assert mem.used_bytes == 40


def test_ensure_refreshes_recency():
    mem = OnChipMemory(100)
    mem.alloc("a", 40)
    mem.alloc("b", 40)
    mem.ensure("a", 40)  # touch "a" so "b" is now oldest
    mem.alloc("c", 40)  # must evict "b", not "a"
    assert "a" in mem and "b" not in mem and "c" in mem


def test_free_unknown_region_raises():
    with pytest.raises(KeyError):
        OnChipMemory(10).free("ghost")


def test_clear_resets_everything():
    mem = OnChipMemory(100)
    mem.alloc("a", 50)
    mem.clear()
    assert len(mem) == 0 and mem.used_bytes == 0


def test_snapshot_order_is_allocation_order():
    mem = OnChipMemory(100)
    for name in ("first", "second", "third"):
        mem.alloc(name, 10)
    assert [r.name for r in mem.snapshot()] == ["first", "second", "third"]
