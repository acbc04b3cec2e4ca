"""Memory Mode: DRAM DIMMs as a direct-mapped cache over NVRAM.

In Memory Mode (Figure 2a) each channel pairs an Optane DIMM with a DRAM
DIMM; the DRAM acts as a direct-mapped, 64B-line cache in front of the
NVRAM, managed by the iMC.  Persistence is *not* provided in this mode,
so :meth:`fence` is a no-op.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.units import GIB
from repro.dram.device import DramDevice
from repro.dram.timing import DDR4_2666, DDR4Timing
from repro.engine.request import CACHE_LINE
from repro.engine.stats import StatsRegistry
from repro.target import TargetSystem
from repro.vans.config import VansConfig
from repro.vans.system import VansSystem


class MemoryModeSystem(TargetSystem):
    """DRAM-cached NVRAM (Optane Memory Mode)."""

    def __init__(
        self,
        nvram_config: Optional[VansConfig] = None,
        dram_capacity: int = 4 * GIB,
        dram_timing: DDR4Timing = DDR4_2666,
        dram_channels: int = 4,
        instrument=None,
        flight=None,
        faults=None,
    ) -> None:
        from repro.faults.injector import NULL_FAULTS
        from repro.flight.recorder import NULL_FLIGHT
        from repro.instrument import NULL_BUS
        self.instrument = instrument if instrument is not None else NULL_BUS
        self.flight = flight if flight is not None else NULL_FLIGHT
        self.faults = faults if faults is not None else NULL_FAULTS
        self.nvram = VansSystem(nvram_config,
                                instrument=self.instrument.scope("nvram"),
                                flight=self.flight,
                                faults=self.faults)
        self.dram = DramDevice(dram_timing, nchannels=dram_channels,
                               capacity_bytes=dram_capacity)
        self.dram_capacity = dram_capacity
        self.nsets = dram_capacity // CACHE_LINE
        # direct-mapped tag store: set index -> (tag, dirty)
        self._tags: Dict[int, tuple] = {}
        self.stats = StatsRegistry()
        self._c_hits = self.stats.counter("memmode.hits")
        self._c_misses = self.stats.counter("memmode.misses")
        self._c_writebacks = self.stats.counter("memmode.writebacks")
        self.name = "memory-mode"

    def profile_points(self):
        yield ("memmode.read", self, "read")
        yield ("memmode.write", self, "write")
        yield ("memmode.fence", self, "fence")
        yield from self.nvram.profile_points()

    def _locate(self, addr: int):
        line = addr // CACHE_LINE
        index = line % self.nsets
        tag = line // self.nsets
        return index, tag

    def _fill(self, index: int, tag: int, dirty: bool, now: int) -> int:
        """Handle miss: evict (write back if dirty), fetch from NVRAM."""
        victim = self._tags.get(index)
        done = now
        if victim is not None and victim[1]:
            victim_addr = (victim[0] * self.nsets + index) * CACHE_LINE
            self._c_writebacks.add()
            done = max(done, self.nvram.write(victim_addr, now))
        fetch_addr = (tag * self.nsets + index) * CACHE_LINE
        done = max(done, self.nvram.read(fetch_addr, now))
        self._tags[index] = (tag, dirty)
        return done

    def read(self, addr: int, now: int) -> int:
        return self._access(addr, False, now)

    def write(self, addr: int, now: int) -> int:
        return self._access(addr, True, now)

    def _access(self, addr: int, is_write: bool, now: int) -> int:
        """One 64B access through the DRAM cache.  Fault request ordinals
        are counted iMC-side, by the backing NVRAM system on a miss."""
        fl = self.flight
        if fl.enabled:
            fl.begin("write" if is_write else "read", addr, CACHE_LINE,
                     issue_ps=now)
        index, tag = self._locate(addr)
        entry = self._tags.get(index)
        if entry is not None and entry[0] == tag:
            self._c_hits.add()
            if is_write:
                self._tags[index] = (tag, True)
            start, phase = now, "hit"
            done = self.dram.access(addr % self.dram_capacity, is_write, now)
        else:
            self._c_misses.add()
            start, phase = self._fill(index, tag, is_write, now), "fill"
            done = max(start, self.dram.access(addr % self.dram_capacity,
                                               True, start))
        if fl.enabled:
            fl.span("memmode.dram", start, done, phase=phase)
            fl.end(done)
        tel = self.telemetry
        if tel.enabled:
            tel.tick(done)
        return done

    def fence(self, now: int) -> int:
        """Memory Mode offers no persistence; fences order nothing here."""
        return now

    @property
    def hit_rate(self) -> float:
        hits = self._c_hits.value
        total = hits + self._c_misses.value
        return hits / total if total else 0.0

    def reset_state(self) -> None:
        self._tags.clear()
        self.nvram.reset_state()

    def reset(self) -> None:
        """Full warm-cache reset: cache tags, DRAM timing state, the
        backing NVRAM system, and all counters back to as-built."""
        self._tags.clear()
        self.dram.reset()
        self.nvram.reset()
        self.stats.reset()
        self.instrument.reset()

    def instrument_snapshot(self) -> dict:
        """Cache-layer stats plus the backing NVRAM system's snapshot."""
        snap = dict(self.stats.snapshot())
        for path, value in self.nvram.instrument_snapshot().items():
            snap[f"nvram.{path}"] = value
        return snap

    def stat_registries(self) -> list:
        """Own cache stats plus the inner NVRAM system's registry (the
        telemetry sampler reads both; the nvram bus gauges already land
        on this system's root bus via the ``nvram.`` scope)."""
        return [self.stats, self.nvram.stats]
