"""Integrated memory controller (iMC) model.

Each NVRAM channel has a read pending queue (RPQ) and a write pending
queue (WPQ).  The WPQ is inside the ADR (asynchronous DRAM refresh)
power-fail domain: a store is *persistent* the moment it is accepted, so
an nt-store's observed latency is its WPQ admission time — which is why
LENS's store latency curve inflects exactly when a write burst exceeds
the 512B WPQ (Figure 5a) and why ``mfence`` cost tracks WPQ drain.

The iMC and DIMM communicate by a request/grant scheme (DDR-T): reads pay
a request hop going out and a grant hop coming back; WPQ entries drain to
the DIMM LSQ one 64B line at a time.
"""

from __future__ import annotations

from typing import List, Optional

from repro.engine.queueing import FcfsStation, Server
from repro.engine.request import CACHE_LINE
from repro.engine.stats import StatsRegistry
from repro.hooks import Hooks
from repro.vans.config import VansConfig
from repro.vans.dimm import NvramDimm
from repro.vans.interleave import Interleaver

#: outstanding-read limit per channel (RPQ entries)
RPQ_ENTRIES = 64


class IntegratedMemoryController:
    """iMC front end over one or more NVRAM DIMMs."""

    def __init__(self, config: VansConfig, stats: Optional[StatsRegistry] = None,
                 track_line_wear: bool = False, instrument=None,
                 hooks: Optional[Hooks] = None) -> None:
        from repro.instrument import NULL_BUS
        self.config = config
        self.stats = stats or StatsRegistry()
        self.instrument = instrument if instrument is not None else NULL_BUS
        self.hooks = hooks if hooks is not None else Hooks()
        self.interleaver = Interleaver(
            config.ndimms, config.interleave_bytes, config.interleaved
        )
        self.dimms: List[NvramDimm] = [
            NvramDimm(config.dimm, stats=self.stats,
                      track_line_wear=track_line_wear,
                      instrument=self.instrument.scope(f"dimm{i}"),
                      hooks=self.hooks)
            for i in range(config.ndimms)
        ]
        self.wpqs: List[FcfsStation] = [
            FcfsStation(config.wpq.entries) for _ in range(config.ndimms)
        ]
        self.rpqs: List[FcfsStation] = [
            FcfsStation(RPQ_ENTRIES) for _ in range(config.ndimms)
        ]
        # Serial per-channel write path draining the WPQ into the DIMM.
        self.write_buses: List[Server] = [Server() for _ in range(config.ndimms)]
        for i in range(config.ndimms):
            channel = self.instrument.scope(f"channel{i}")
            self.wpqs[i].publish(channel, "wpq")
            self.rpqs[i].publish(channel, "rpq")
            self.write_buses[i].publish(channel, "write_bus")
        # Optional explicit DDR-T request/grant layer (protocol studies).
        self.ddrt = None
        if config.dimm.timing.ddrt_detailed:
            from repro.vans.ddrt import DdrtChannel
            self.ddrt = [DdrtChannel(stats=self.stats, hooks=self.hooks,
                                     channel=i)
                         for i in range(config.ndimms)]
        self._c_reads = self.stats.counter("imc.reads")
        self._c_writes = self.stats.counter("imc.writes")
        self._c_fences = self.stats.counter("imc.fences")
        # Frozen-config hop constants hoisted off the per-request path.
        self._ddrt_request_ps = config.dimm.timing.ddrt_request_ps
        self._wpq_xfer_ps = config.dimm.timing.wpq_xfer_ps

    def profile_points(self):
        """Host-profiler attribution points (see ``TargetSystem``)."""
        yield ("imc.read", self, "read")
        yield ("imc.write", self, "write")
        yield ("imc.fence", self, "fence")
        if self.ddrt is not None:
            for channel in self.ddrt:
                yield ("ddrt.send_read_request", channel,
                       "send_read_request")
                yield ("ddrt.return_read_data", channel,
                       "return_read_data")
                yield ("ddrt.send_write", channel, "send_write")
        for dimm in self.dimms:
            yield from dimm.profile_points()

    def read(self, addr: int, now: int) -> int:
        """Issue a 64B read; returns the time data reaches the core side."""
        self._c_reads.add()
        h = self.hooks
        dimm_idx, local = self.interleaver.map(addr)
        rpq = self.rpqs[dimm_idx]
        start = rpq.admit(now)
        if h.on:
            h.faults.on_request(now)
            h.flight.span("imc.rpq", now, start, phase="wait",
                          channel=dimm_idx)
        if self.ddrt is not None:
            channel = self.ddrt[dimm_idx]
            cmd_done = channel.send_read_request(start)
            ready = self.dimms[dimm_idx].read_line(local, cmd_done)
            done = channel.return_read_data(ready)
        else:
            hop = self._ddrt_request_ps
            if h.on:
                hop += h.faults.link_extra_ps(dimm_idx, start, hop)
                h.flight.span("ddrt.link", start, start + hop,
                              phase="request", channel=dimm_idx)
            done = self.dimms[dimm_idx].read_line(local, start + hop)
        rpq.retire_at(done)
        return done

    def write(self, addr: int, now: int, nbytes: int = CACHE_LINE) -> int:
        """Issue a 64B (nt-)store; returns its persistence-accept time.

        The accept time is the WPQ admission (ADR domain).  The drain to
        the DIMM continues asynchronously and frees the WPQ slot when the
        line has been transferred into the DIMM LSQ.
        """
        self._c_writes.add()
        h = self.hooks
        dimm_idx, local = self.interleaver.map(addr)
        wpq = self.wpqs[dimm_idx]
        accept = wpq.admit(now)
        if h.on:
            h.faults.on_request(now)
            h.flight.span("imc.wpq", now, accept, phase="wait",
                          channel=dimm_idx)
            # WPQ admission is the ADR persistence point; the checker
            # audits this acknowledgement against any injected power cut.
            h.faults.note_write(addr, now, accept)
        if self.ddrt is not None:
            channel = self.ddrt[dimm_idx]
            xfer_done = channel.send_write(accept)
            lsq_admit = self.dimms[dimm_idx].write_line(local, xfer_done,
                                                        nbytes)
            channel.complete_write(lsq_admit)
        else:
            xfer_ps = self._wpq_xfer_ps
            if h.on:
                xfer_ps += h.faults.link_extra_ps(dimm_idx, accept, xfer_ps)
            xfer_done = self.write_buses[dimm_idx].serve(accept, xfer_ps)
            if h.on:
                h.flight.span("imc.write_bus", accept, xfer_done,
                              phase="drain", channel=dimm_idx)
            lsq_admit = self.dimms[dimm_idx].write_line(local, xfer_done,
                                                        nbytes)
        wpq.retire_at(max(lsq_admit, xfer_done))
        return accept

    def fence(self, now: int) -> int:
        """Drain every WPQ and DIMM LSQ; returns the global drain time."""
        self._c_fences.add()
        done = now
        h = self.hooks
        for channel, (wpq, dimm) in enumerate(zip(self.wpqs, self.dimms)):
            wpq_done = wpq.drain_time(now)
            if h.on:
                h.flight.span("imc.wpq", now, wpq_done, phase="drain",
                              channel=channel)
            done = max(done, wpq_done, dimm.flush(now))
        if h.on:
            h.faults.note_fence(done)
        return done
