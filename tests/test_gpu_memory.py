"""Tests for global memory, caches, and coalescing."""

import numpy as np
import pytest

from repro.gpu.memory import CacheModel, DeviceBuffer, GlobalMemory, global_pattern


class TestGlobalMemory:
    def test_alloc_copies_data(self):
        gm = GlobalMemory()
        host = np.arange(8, dtype=np.float32)
        buf = gm.alloc("a", host)
        host[0] = 99
        assert buf.data[0] == 0

    def test_disjoint_base_addresses(self):
        gm = GlobalMemory()
        a = gm.alloc("a", np.zeros(100, dtype=np.float32))
        b = gm.alloc("b", np.zeros(100, dtype=np.float32))
        a_end = a.base_addr + a.nbytes
        assert b.base_addr >= a_end

    def test_atomic_add_returns_old(self):
        gm = GlobalMemory()
        buf = gm.alloc("a", np.zeros(2, dtype=np.uint32))
        old = gm.atomic("add", buf, np.array([0, 0, 1]),
                        np.array([1, 1, 5], dtype=np.uint32))
        np.testing.assert_array_equal(old, [0, 1, 0])
        assert buf.data[0] == 2
        assert buf.data[1] == 5

    def test_atomic_xchg(self):
        gm = GlobalMemory()
        buf = gm.alloc("a", np.array([7], dtype=np.uint32))
        old = gm.atomic("xchg", buf, np.array([0]), np.array([9], dtype=np.uint32))
        assert old[0] == 7 and buf.data[0] == 9

    def test_atomic_cmpxchg(self):
        gm = GlobalMemory()
        buf = gm.alloc("a", np.array([5], dtype=np.uint32))
        old = gm.atomic(
            "cmpxchg", buf, np.array([0, 0]),
            np.array([8, 9], dtype=np.uint32),
            compares=np.array([5, 5], dtype=np.uint32),
        )
        # First lane swaps (5->8); second lane's compare fails against 8.
        np.testing.assert_array_equal(old, [5, 8])
        assert buf.data[0] == 8

    def test_atomic_max_and_or(self):
        gm = GlobalMemory()
        buf = gm.alloc("a", np.array([4, 1], dtype=np.uint32))
        gm.atomic("max", buf, np.array([0]), np.array([9], dtype=np.uint32))
        gm.atomic("or", buf, np.array([1]), np.array([6], dtype=np.uint32))
        assert buf.data[0] == 9
        assert buf.data[1] == 7

    def test_addresses(self):
        buf = DeviceBuffer("x", np.zeros(8, dtype=np.float32), base_addr=0x1000)
        np.testing.assert_array_equal(
            buf.addresses(np.array([0, 2])), [0x1000, 0x1008]
        )


class TestCoalescing:
    """Line counts of the GCN coalescing model (``global_pattern``)."""

    @staticmethod
    def _ntx(indices):
        buf = DeviceBuffer("x", np.zeros(1, dtype=np.float32), 0x1000)
        _i0, _line0, pat = global_pattern({}, buf, indices, 64)
        return len(pat.lines)

    def test_consecutive_lanes_few_lines(self):
        assert self._ntx(np.arange(64, dtype=np.int64)) == 4

    def test_scattered_lanes_many_lines(self):
        assert self._ntx(64 * np.arange(64, dtype=np.int64)) == 64

    def test_broadcast_single_line(self):
        assert self._ntx(np.zeros(64, dtype=np.int64)) == 1


class TestCacheModel:
    def test_miss_then_hit(self):
        c = CacheModel(1024, 64, ways=2)
        hit, _ = c.access(10)
        assert not hit
        hit, _ = c.access(10)
        assert hit

    def test_lru_eviction(self):
        c = CacheModel(2 * 64, 64, ways=2)  # one set, 2 ways
        c.access(0)
        c.access(1)
        c.access(0)       # 0 is now MRU
        c.access(2)       # evicts 1
        hit, _ = c.access(0)
        assert hit
        hit, _ = c.access(1)
        assert not hit

    def test_dirty_eviction_reports_writeback(self):
        c = CacheModel(2 * 64, 64, ways=2)
        c.access(0, write=True)
        c.access(1)
        _, wb = c.access(2)   # evicts dirty line 0
        assert wb == 0
        assert c.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = CacheModel(2 * 64, 64, ways=2)
        c.access(0)
        c.access(1)
        _, wb = c.access(2)
        assert wb is None

    def test_write_hit_marks_dirty(self):
        c = CacheModel(2 * 64, 64, ways=2)
        c.access(0)               # clean
        c.access(0, write=True)   # now dirty
        c.access(1)
        _, wb = c.access(2)
        assert wb == 0

    def test_no_allocate_probe(self):
        c = CacheModel(1024, 64, ways=2)
        c.access(5, allocate=False)
        hit, _ = c.access(5)
        assert not hit

    def test_hit_rate(self):
        c = CacheModel(1024, 64, ways=4)
        c.access(1)
        c.access(1)
        c.access(1)
        assert c.hit_rate == pytest.approx(2 / 3)

    def test_reset_stats(self):
        c = CacheModel(1024, 64, ways=4)
        c.access(1)
        c.reset_stats()
        assert c.hits == 0 and c.misses == 0

    def test_sets_isolated(self):
        c = CacheModel(4 * 64, 64, ways=1)  # 4 sets, direct-mapped
        c.access(0)
        c.access(1)  # different set
        hit, _ = c.access(0)
        assert hit
