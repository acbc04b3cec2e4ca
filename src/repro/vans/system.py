"""VANS top level: the simulated NVRAM memory system.

``VansSystem`` is the object users construct; it owns the iMC, the DIMM
population, and statistics, and implements the :class:`TargetSystem`
interface so LENS and the experiment harness can drive it.  This is the
"trace mode" of the paper (Section IV-C); full-system mode attaches the
same object underneath the CPU model in :mod:`repro.cpu.system`.
"""

from __future__ import annotations

from typing import Optional

from repro.common.units import align_down
from repro.engine.request import CACHE_LINE
from repro.engine.stats import StatsRegistry
from repro.hooks import Hooks
from repro.target import TargetSystem
from repro.vans.config import VansConfig
from repro.vans.imc import IntegratedMemoryController


class VansSystem(TargetSystem):
    """App Direct-mode NVRAM memory system (iMC + Optane-like DIMMs)."""

    def __init__(self, config: Optional[VansConfig] = None,
                 track_line_wear: bool = False, instrument=None,
                 hooks: Optional[Hooks] = None) -> None:
        from repro.instrument import NULL_BUS
        super().__init__(hooks)
        self.config = config or VansConfig()
        self.stats = StatsRegistry()
        self.instrument = instrument if instrument is not None else NULL_BUS
        self.imc = IntegratedMemoryController(
            self.config, stats=self.stats, track_line_wear=track_line_wear,
            instrument=self.instrument.scope("imc"), hooks=self.hooks,
        )
        self.name = f"vans-{self.config.ndimms}dimm"
        self._hist_read = self.stats.histogram("vans.read_latency_ps")
        self._hist_write = self.stats.histogram("vans.write_latency_ps")
        self._collect = self.config.collect_latency_histograms
        # Frozen-config constants hoisted off the per-request path.
        self._frontend_read_ps = self.config.dimm.timing.frontend_read_ps
        self._frontend_write_ps = self.config.dimm.timing.frontend_write_ps

    # -- TargetSystem ---------------------------------------------------

    def profile_points(self):
        yield ("vans.read", self, "read")
        yield ("vans.write", self, "write")
        yield ("vans.fence", self, "fence")
        yield from self.imc.profile_points()

    def read(self, addr: int, now: int) -> int:
        issue = now + self._frontend_read_ps
        h = self.hooks
        if h.on:
            h.flight.begin("read", addr, CACHE_LINE, issue_ps=now)
            h.flight.span("cpu.frontend", now, issue, phase="read")
        done = self.imc.read(addr, issue)
        if self._collect:
            self._hist_read.record(done - now)
        if h.on:
            h.flight.end(done)
            h.tick(done)
        return done

    def write(self, addr: int, now: int) -> int:
        issue = now + self._frontend_write_ps
        h = self.hooks
        if h.on:
            h.flight.begin("write", addr, CACHE_LINE, issue_ps=now)
            h.flight.span("cpu.frontend", now, issue, phase="write")
        accept = self.imc.write(addr, issue)
        if self._collect:
            self._hist_write.record(accept - now)
        if h.on:
            h.flight.end(accept)
            h.tick(accept)
        return accept

    def fence(self, now: int) -> int:
        h = self.hooks
        if h.on:
            h.flight.begin("fence", 0, 0, issue_ps=now)
        done = self.imc.fence(now)
        if h.on:
            h.flight.end(done)
            h.tick(done)
        return done

    def warm_fill(self, start_addr: int, length: int) -> None:
        """Pre-populate AIT/RMW tag state for a region (fast-forward)."""
        inter = self.imc.interleaver
        if not inter.interleaved:
            self.imc.dimms[0].warm_fill(start_addr, length)
            return
        g = inter.granularity
        addr = align_down(start_addr, g)
        end = start_addr + length
        while addr < end:
            dimm_idx, local = inter.map(addr)
            self.imc.dimms[dimm_idx].warm_fill(local, g)
            addr += g

    def reset_state(self) -> None:
        for dimm in self.imc.dimms:
            dimm.invalidate_buffers()

    # -- introspection ----------------------------------------------------

    @property
    def dimm(self):
        """The first DIMM (convenient for single-DIMM experiments)."""
        return self.imc.dimms[0]

    @property
    def rmw_read_amplification(self) -> float:
        return self.dimm.rmw_read_amplification

    @property
    def wear_migrations(self) -> int:
        return sum(d.wear.migrations for d in self.imc.dimms)

    def counters(self) -> dict:
        return self.stats.snapshot()

    def instrument_snapshot(self) -> dict:
        """Structured observability snapshot: stats counters plus the
        pull-gauges of every queueing station on the instrument bus."""
        snap = dict(self.stats.snapshot())
        snap.update(self.instrument.snapshot())
        return snap

    def line_of(self, addr: int) -> int:
        return align_down(addr, CACHE_LINE)
