"""Quartz-style NVRAM emulation (Volos et al., Middleware'15 [56]).

Quartz models NVRAM latency in *epochs*: it counts DRAM accesses with
performance counters and, at each epoch boundary, spins the CPU for the
aggregate extra delay the slower NVRAM would have added.  Per-request
latencies are therefore DRAM latencies; only long-run averages reflect
the target latency, and no buffer/queue microarchitecture exists at all.
"""

from __future__ import annotations

from repro.common.units import GIB, NS
from repro.dram.device import DramDevice
from repro.dram.timing import DDR4_2666
from repro.target import TargetSystem


class QuartzModel(TargetSystem):
    """Epoch-based delay-injection emulator."""

    def __init__(
        self,
        extra_read_ps: int = 240 * NS,
        extra_write_ps: int = 0,
        epoch_accesses: int = 1024,
        capacity_bytes: int = 4 * GIB,
    ) -> None:
        super().__init__()
        self.extra_read_ps = extra_read_ps
        self.extra_write_ps = extra_write_ps
        self.epoch_accesses = epoch_accesses
        self.dram = DramDevice(DDR4_2666, nchannels=4,
                               capacity_bytes=capacity_bytes)
        self._pending_delay_ps = 0
        self._accesses = 0
        self._epoch_skew_ps = 0  # accumulated injected stall
        self.name = "quartz"

    def _account(self, extra_ps: int, now: int) -> int:
        """Bank the emulation delay; inject it at epoch boundaries."""
        self._pending_delay_ps += extra_ps
        self._accesses += 1
        if self._accesses % self.epoch_accesses == 0:
            stall = self._pending_delay_ps
            self._pending_delay_ps = 0
            self._epoch_skew_ps += stall
            return now + stall
        return now

    def read(self, addr: int, now: int) -> int:
        done = self._account(self.extra_read_ps,
                             self.dram.access(addr, False, now))
        h = self.hooks
        if h.on:
            h.faults.on_request(now)
            h.tick(done)
        return done

    def write(self, addr: int, now: int) -> int:
        done = self._account(self.extra_write_ps,
                             self.dram.access(addr, True, now))
        h = self.hooks
        if h.on:
            h.faults.on_request(now)
            h.tick(done)
        return done

    @property
    def injected_stall_ps(self) -> int:
        return self._epoch_skew_ps
