"""CPU caches: geometry, LRU, write-back, hierarchy composition.

The per-level behaviours (LRU victim choice, dirty write-back, occupancy)
are checked through ``CacheHierarchy.access``, the one implementation of
the LRU walk, on a tiny hierarchy whose three levels share their set
index for addresses ``SET_STRIDE`` apart.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.common.units import KIB
from repro.cpu.cache import CacheConfig, CacheHierarchy

SMALL = CacheConfig("T", 4 * KIB, 4, 2)  # 16 sets x 4 ways
SMALL_L2 = CacheConfig("T2", 8 * KIB, 4, 3)  # 32 sets x 4 ways
SMALL_L3 = CacheConfig("T3", 16 * KIB, 4, 5)  # 64 sets x 4 ways
#: addresses this far apart map to the same set in all three levels
SET_STRIDE = SMALL_L3.nsets * 64


def small_hierarchy():
    return CacheHierarchy(SMALL, SMALL_L2, SMALL_L3)


def test_geometry():
    assert SMALL.nsets == 16


def test_invalid_geometry():
    with pytest.raises(ConfigError):
        CacheConfig("bad", 4 * KIB + 64, 4, 2)


def test_miss_then_hit():
    h = small_hierarchy()
    assert h.access(0, False)[0] == "mem"
    assert h.access(0, False)[0] == "l1"
    assert h.l1.hits == 1 and h.l1.misses == 1
    # sets are built on first touch: one per level so far
    assert [len(c._sets) for c in (h.l1, h.l2, h.l3)] == [1, 1, 1]


def test_lru_eviction_order():
    h = small_hierarchy()
    for i in range(4):
        h.access(i * SET_STRIDE, False)
    h.access(0, False)              # refresh line 0
    h.access(4 * SET_STRIDE, False)  # evicts the L1 LRU = line 1
    assert h.l1.contains(0)
    assert not h.l1.contains(SET_STRIDE)


def test_dirty_eviction_returns_victim():
    h = small_hierarchy()
    h.access(0, True)
    for i in range(1, 4):
        h.access(i * SET_STRIDE, False)
    # line 0 leaves L1 dirty, its dirty bit follows it down to L3 as each
    # level evicts it in turn, and L3 hands it to memory
    assert h.access(4 * SET_STRIDE, False)[2] == [0]
    snap = h.stats.snapshot()
    assert (snap["T.writebacks"], snap["T2.writebacks"],
            snap["T3.writebacks"]) == (1, 1, 1)


def test_clean_eviction_returns_none():
    h = small_hierarchy()
    for i in range(9):
        assert h.access(i * SET_STRIDE, False)[2] == []


def test_write_hit_marks_dirty():
    h = small_hierarchy()
    h.access(0, False)
    assert h.access(0, True)[0] == "l1"  # write hit dirties the line
    for i in range(1, 4):
        h.access(i * SET_STRIDE, False)
    assert h.access(4 * SET_STRIDE, False)[2] == [0]


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 1023), st.booleans()),
                min_size=1, max_size=300))
def test_occupancy_never_exceeds_capacity(accesses):
    h = small_hierarchy()
    for line, is_write in accesses:
        h.access(line * 64, is_write)
    for cache in (h.l1, h.l2, h.l3):
        config = cache.config
        assert len(cache._sets) <= config.nsets
        resident = sum(len(s) for s in cache._sets.values())
        assert resident <= config.capacity_bytes // 64
        for cset in cache._sets.values():
            assert len(cset) <= config.ways


@given(st.lists(st.integers(0, 255), min_size=1, max_size=100))
def test_rereference_always_hits(lines):
    """Property: a line just accessed is resident in L1 (top of LRU)."""
    h = small_hierarchy()
    for line in lines:
        addr = line * 64
        h.access(addr, False)
        assert h.l1.contains(addr)
        assert h.access(addr, False)[0] == "l1"


class TestHierarchy:
    def test_miss_propagates_to_mem(self):
        h = CacheHierarchy()
        level, cycles, victims = h.access(0, False)
        assert level == "mem"
        assert cycles == (h.l1.config.latency_cycles
                          + h.l2.config.latency_cycles
                          + h.l3.config.latency_cycles)
        assert victims == []

    def test_second_access_hits_l1(self):
        h = CacheHierarchy()
        h.access(0, False)
        level, cycles, _ = h.access(0, False)
        assert level == "l1"
        assert cycles == h.l1.config.latency_cycles

    def test_l1_eviction_falls_to_l2(self):
        h = CacheHierarchy()
        h.access(0, False)
        # evict line 0 from L1 (same-set fills) but it stays in L2
        set_stride = h.l1.config.nsets * 64
        for i in range(1, 9):
            h.access(i * set_stride, False)
        level, _, _ = h.access(0, False)
        assert level in ("l2", "l3")

    def test_dirty_l3_victims_surface(self):
        h = CacheHierarchy()
        h.access(0, True)  # dirty in L1
        # push it down and out: fill way past L3 associativity in one set
        stride = h.l3.config.nsets * 64
        victims = []
        for i in range(1, 40):
            _, _, v = h.access(i * stride, False)
            victims.extend(v)
        assert 0 in victims

    def test_miss_rate_accounting(self):
        h = CacheHierarchy()
        h.access(0, False)
        h.access(0, False)
        assert h.llc_misses == 1
        assert 0 < h.llc_miss_rate <= 1
