"""DRAMSim2/Ramulator-style simulators: DDR state machines, no Optane
microarchitecture.

These model memory exactly as a conventional DRAM simulator does — banks,
rows, JEDEC timing — optionally with PCM-stretched array timings (the
Ramulator PCM plug-in).  Because there is no on-DIMM buffer hierarchy,
their pointer-chasing latency is flat in the access-region size (modulo
row-buffer effects), reproducing the mismatch of Figure 3.
"""

from __future__ import annotations

from repro.common.units import GIB, NS
from repro.dram.device import DramDevice
from repro.dram.timing import DDR3_1600, DDR4_2666, DDR4Timing, PCM_TIMING
from repro.target import TargetSystem


class SlowDramSystem(TargetSystem):
    """Conventional DRAM-architecture memory simulator."""

    def __init__(
        self,
        timing: DDR4Timing,
        name: str,
        nchannels: int = 4,
        capacity_bytes: int = 4 * GIB,
        frontend_ps: int = 60 * NS,
    ) -> None:
        super().__init__()
        self.dram = DramDevice(timing, nchannels=nchannels,
                               capacity_bytes=capacity_bytes)
        self.frontend_ps = frontend_ps
        self.name = name
        self.stats = self.dram.stats
        self._c_reads = self.stats.counter("slowdram.reads")
        self._c_writes = self.stats.counter("slowdram.writes")

    def read(self, addr: int, now: int) -> int:
        self._c_reads.value += 1
        done = self.dram.access(addr, False, now + self.frontend_ps)
        h = self.hooks
        if h.on:
            h.faults.on_request(now)
            h.tick(done)
        return done

    def write(self, addr: int, now: int) -> int:
        self._c_writes.value += 1
        done = self.dram.access(addr, True, now + self.frontend_ps)
        h = self.hooks
        if h.on:
            h.faults.on_request(now)
            h.tick(done)
        return done

    def fence(self, now: int) -> int:
        return now


def dramsim2_ddr3(**kwargs) -> SlowDramSystem:
    """DRAMSim2 configured for DDR3-1600 (the paper's Figure 3a bar)."""
    return SlowDramSystem(DDR3_1600, name="dramsim2-ddr3", **kwargs)


def ramulator_ddr4(**kwargs) -> SlowDramSystem:
    """Ramulator's DDR4 model."""
    return SlowDramSystem(DDR4_2666, name="ramulator-ddr4", **kwargs)


def ramulator_pcm(**kwargs) -> SlowDramSystem:
    """Ramulator's PCM model: DDR machine with stretched array timings."""
    return SlowDramSystem(PCM_TIMING, name="ramulator-pcm", **kwargs)
