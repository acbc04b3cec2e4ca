"""DDR-T transaction channel: the iMC <-> DIMM request/grant protocol.

Optane DIMMs speak DDR-T — DDR4 electricals with a transactional
command layer [49]: the iMC sends a read request and *waits for the
DIMM's grant*; when the data is ready the DIMM arbitrates for the bus
and pushes it back.  The default VANS model folds this into fixed
per-hop latencies; this module is the detailed alternative: explicit
command-slot credits, a shared command bus, and a shared data bus, so
heavy traffic exhibits the request/grant queueing the fixed constants
hide.

Enable with ``TimingConfig.ddrt_detailed = True`` (the validated Optane
configuration keeps it off; the calibration constants already absorb
the average protocol cost).
"""

from __future__ import annotations

from typing import Optional

from repro.common.units import NS
from repro.engine.queueing import FcfsStation, Server
from repro.engine.stats import StatsRegistry
from repro.hooks import Hooks


class DdrtChannel:
    """Credit-based transactional channel between one iMC port and one
    DIMM.

    * ``command_slots`` — outstanding transactions the DIMM accepts
      (credits); a request waits for a credit when all are in flight;
    * command bus — serializes request packets (one per transaction);
    * data bus — serializes 64B data transfers, shared by read returns
      and write sends (the "bus redirection" contention point).
    """

    def __init__(
        self,
        command_slots: int = 32,
        command_ps: int = 8 * NS,   # one request/grant packet
        data_ps: int = 6 * NS,      # one 64B data beat group
        stats: Optional[StatsRegistry] = None,
        hooks: Optional[Hooks] = None,
        channel: int = 0,
    ) -> None:
        self.credits = FcfsStation(command_slots)
        self.command_bus = Server()
        self.data_bus = Server()
        self.command_ps = command_ps
        self.data_ps = data_ps
        self.stats = stats or StatsRegistry()
        self.hooks = hooks if hooks is not None else Hooks()
        self.channel = channel
        self._c_reads = self.stats.counter("ddrt.read_txns")
        self._c_writes = self.stats.counter("ddrt.write_txns")

    def send_read_request(self, now: int) -> int:
        """Issue a read transaction; returns when the DIMM has the
        command (credit acquired + command bus transfer)."""
        self._c_reads.add()
        h = self.hooks
        granted = self.credits.admit(now)
        command_ps = self.command_ps
        if h.on:
            command_ps += h.faults.link_extra_ps(self.channel, granted,
                                                 command_ps)
        done = self.command_bus.serve(granted, command_ps)
        if h.on:
            h.flight.span("ddrt.credits", now, granted, phase="wait")
            h.flight.span("ddrt.cmd_bus", granted, done, phase="request")
        return done

    def return_read_data(self, ready: int) -> int:
        """DIMM pushes the 64B payload back; frees the credit."""
        h = self.hooks
        data_ps = self.data_ps
        if h.on:
            data_ps += h.faults.link_extra_ps(self.channel, ready, data_ps)
        done = self.data_bus.serve(ready, data_ps)
        if h.on:
            h.flight.span("ddrt.data_bus", ready, done, phase="return")
        self.credits.retire_at(done)
        return done

    def send_write(self, now: int) -> int:
        """Issue a 64B write transaction (command + data outbound)."""
        self._c_writes.add()
        h = self.hooks
        granted = self.credits.admit(now)
        command_ps = self.command_ps
        if h.on:
            command_ps += h.faults.link_extra_ps(self.channel, granted,
                                                 command_ps)
        cmd_done = self.command_bus.serve(granted, command_ps)
        data_ps = self.data_ps
        if h.on:
            data_ps += h.faults.link_extra_ps(self.channel, cmd_done, data_ps)
        data_done = self.data_bus.serve(cmd_done, data_ps)
        if h.on:
            h.flight.span("ddrt.credits", now, granted, phase="wait")
            h.flight.span("ddrt.cmd_bus", granted, cmd_done, phase="send")
            h.flight.span("ddrt.data_bus", cmd_done, data_done, phase="send")
        return data_done

    def complete_write(self, accepted: int) -> None:
        """DIMM accepted the write into its LSQ; frees the credit."""
        self.credits.retire_at(accepted)

    @property
    def transactions(self) -> int:
        return self._c_reads.value + self._c_writes.value
