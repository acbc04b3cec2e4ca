"""A DRAM device: one or more channels behind a line-interleaved front end.

This is the building block for (a) the on-DIMM DRAM inside the Optane
model (single channel, holds AIT table + buffer) and (b) the DRAM main
memory of the baseline server configuration (multi-channel).
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import ConfigError
from repro.common.units import GIB, is_power_of_two
from repro.dram.address import AddressMapping
from repro.dram.controller import DramController
from repro.dram.timing import DDR4Timing
from repro.engine.request import CACHE_LINE
from repro.engine.stats import StatsRegistry


class DramDevice:
    """Multi-channel DDR4 memory with a 64B-line channel interleave.

    ``nchannels`` is a power of two, so line ``addr >> 6`` goes to channel
    ``(addr >> 6) & (nchannels - 1)``, which sees the line bits above the
    channel bits as its local line number.  The channel mask, the local
    shift and each channel's bound ``access`` are fixed at construction;
    :meth:`access_block` dispatches every line itself, with no
    :meth:`access` call per line.
    """

    def __init__(
        self,
        timing: DDR4Timing,
        nchannels: int = 1,
        capacity_bytes: int = 4 * GIB,
        mapping: Optional[AddressMapping] = None,
        row_policy: str = "open",
        record_commands: bool = False,
    ) -> None:
        if not is_power_of_two(nchannels):
            raise ConfigError(f"nchannels must be a power of two, got {nchannels}")
        self.timing = timing
        self.nchannels = nchannels
        self.capacity_bytes = capacity_bytes
        self.stats = StatsRegistry()
        self.channels: List[DramController] = [
            DramController(
                timing,
                mapping=mapping,
                row_policy=row_policy,
                record_commands=record_commands,
                stats=self.stats,
            )
            for _ in range(nchannels)
        ]
        self._ports = [channel.access for channel in self.channels]
        self._channel_mask = nchannels - 1
        self._local_shift = 6 + nchannels.bit_length() - 1

    def access(self, addr: int, is_write: bool, now: int) -> int:
        """One 64B access; returns the completion time in picoseconds."""
        addr %= self.capacity_bytes
        return self._ports[(addr >> 6) & self._channel_mask](
            ((addr >> self._local_shift) << 6) | (addr & 63), is_write, now)

    def access_block(self, addr: int, nbytes: int, is_write: bool, now: int) -> int:
        """Access ``nbytes`` starting at ``addr`` line by line.

        Returns the completion time of the final line; consecutive lines
        stream across channels/banks so big blocks (e.g. a 4KB AIT entry
        fill) get realistic pipelined throughput, not nbytes/64 serial
        latencies.
        """
        capacity = self.capacity_bytes
        ports = self._ports
        mask = self._channel_mask
        shift = self._local_shift
        completion = now
        for line in range(addr, addr + (nbytes if nbytes > CACHE_LINE
                                        else CACHE_LINE), CACHE_LINE):
            line %= capacity
            done = ports[(line >> 6) & mask](
                ((line >> shift) << 6) | (line & 63), is_write, now)
            if done > completion:
                completion = done
        return completion

    def all_commands(self):
        """Concatenated command trace from all channels (if recorded)."""
        out = []
        for channel in self.channels:
            out.extend(channel.commands)
        return out

    @property
    def row_hit_rate(self) -> float:
        hits = self.stats.counter("dram.row_hits").value
        misses = self.stats.counter("dram.row_misses").value
        total = hits + misses
        return hits / total if total else 0.0
