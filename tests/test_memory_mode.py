"""Memory Mode: DRAM as a direct-mapped cache over NVRAM."""

import pytest

from repro.common.units import MIB
from repro.vans import MemoryModeSystem, VansConfig


@pytest.fixture
def memmode():
    return MemoryModeSystem(VansConfig(), dram_capacity=4 * MIB)


def test_first_access_misses_then_hits(memmode):
    miss_done = memmode.read(0, 0)
    t = miss_done + 1000
    hit_done = memmode.read(0, t) - t
    assert hit_done < miss_done
    assert memmode._c_hits.value == 1
    assert memmode._c_misses.value == 1


def test_write_allocates_and_dirties(memmode):
    memmode.write(0, 0)
    assert memmode._c_misses.value == 1
    # conflicting line (same set) evicts the dirty line -> NVRAM write
    conflict = 4 * MIB
    memmode.write(conflict, 10**7)
    assert memmode._c_writebacks.value == 1


def test_clean_eviction_no_writeback(memmode):
    memmode.read(0, 0)
    memmode.read(4 * MIB, 10**7)
    assert memmode._c_writebacks.value == 0


def test_hit_rate_property(memmode):
    memmode.read(0, 0)
    memmode.read(0, 10**7)
    memmode.read(0, 2 * 10**7)
    assert memmode.hit_rate == pytest.approx(2 / 3)


def test_fence_is_noop(memmode):
    """Memory Mode provides no persistence; fences order nothing."""
    memmode.write(0, 0)
    assert memmode.fence(123) == 123


def test_hits_are_dram_speed(memmode):
    memmode.read(0, 0)
    t = 10**7
    hit = memmode.read(0, t) - t
    # DRAM hit well under any NVRAM tier
    assert hit < 60_000


def test_telemetry_ticks_on_hits_and_misses(memmode):
    ticks = []

    class Telemetry:
        enabled = True

        def tick(self, now_ps):
            ticks.append(now_ps)

    memmode.telemetry = Telemetry()
    now = 0
    for _ in range(50):
        now = memmode.read(0, now)
    for _ in range(10):
        now = memmode.write(0, now)
    assert memmode._c_misses.value == 1
    assert len(ticks) == 60
    assert ticks[-1] == now


def test_reset_state(memmode):
    memmode.read(0, 0)
    memmode.reset_state()
    memmode.read(0, 10**7)
    assert memmode._c_misses.value == 2
