"""PMEP-style NVRAM emulation (Dulloor et al., EuroSys'14 [11]).

PMEP emulates NVRAM on a DRAM machine by (a) injecting a fixed additional
latency on loads that miss the LLC and (b) throttling write bandwidth
with DRAM thermal-control registers.  Consequently it behaves exactly
like DRAM with a constant added delay:

* latency per cache line is *flat* across access-region sizes (no
  on-DIMM buffer inflections) — the PMEP curve in Figure 1b;
* regular cached stores are as fast as loads (both hit the emulated
  latency), while non-temporal stores are *slower* than cached stores
  because they pay the uncached path — the inversion versus real Optane
  shown in Figure 1a.
"""

from __future__ import annotations

from repro.common.units import GIB, NS
from repro.dram.device import DramDevice
from repro.dram.timing import DDR4_2666
from repro.engine.queueing import Server
from repro.target import TargetSystem


class PMEPModel(TargetSystem):
    """Delay-injection + bandwidth-throttle NVRAM emulator."""

    def __init__(
        self,
        read_delay_ps: int = 170 * NS,
        write_delay_ps: int = 5 * NS,
        nt_write_ps: int = 60 * NS,       # uncached nt-store path
        write_bw_line_ps: int = 8 * NS,   # throttled write drain per 64B
        capacity_bytes: int = 4 * GIB,
        nchannels: int = 4,
    ) -> None:
        self.read_delay_ps = read_delay_ps
        self.write_delay_ps = write_delay_ps
        self.nt_write_ps = nt_write_ps
        self.dram = DramDevice(DDR4_2666, nchannels=nchannels,
                               capacity_bytes=capacity_bytes)
        self._throttle = Server()
        self._throttle_ps = write_bw_line_ps
        self.name = "pmep"

    def read(self, addr: int, now: int) -> int:
        """DRAM access plus the injected constant NVRAM delay."""
        fa = self.faults
        if fa.enabled:
            fa.on_request(now)
        done = self.dram.access(addr, False, now) + self.read_delay_ps
        tel = self.telemetry
        if tel.enabled:
            tel.tick(done)
        return done

    def write(self, addr: int, now: int) -> int:
        """Cached store write-back: PMEP only injects delay on demand
        loads, so store streams run at (throttled) DRAM speed — which is
        why PMEP ranks cached stores *above* nt-stores (Fig. 1a)."""
        fa = self.faults
        if fa.enabled:
            fa.on_request(now)
        start = self._throttle.serve(now, self._throttle_ps)
        done = self.dram.access(addr, True, start) + self.write_delay_ps
        tel = self.telemetry
        if tel.enabled:
            tel.tick(done)
        return done

    def write_nt(self, addr: int, now: int) -> int:
        """Non-temporal store: the uncached path is serialized and slow
        on the emulation platform (it occupies the throttled channel for
        the whole uncached transaction)."""
        fa = self.faults
        if fa.enabled:
            fa.on_request(now)
        start = self._throttle.serve(now, self.nt_write_ps)
        self.dram.access(addr, True, start)
        done = start + self.nt_write_ps
        tel = self.telemetry
        if tel.enabled:
            tel.tick(done)
        return done

    def fence(self, now: int) -> int:
        return now

    def profile_points(self):
        yield from super().profile_points()
        yield ("pmep.write_nt", self, "write_nt")

    def reset(self) -> None:
        """Warm-cache reset: idle DRAM and throttle server."""
        self.dram.reset()
        self._throttle.reset()
