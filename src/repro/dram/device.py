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
    channel bits as its local line number.
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
        self._channel_mask = nchannels - 1
        self._local_shift = 6 + nchannels.bit_length() - 1

    def access(self, addr: int, is_write: bool, now: int) -> int:
        """One 64B access; returns the completion time in picoseconds."""
        addr %= self.capacity_bytes
        channel = self.channels[(addr >> 6) & self._channel_mask]
        local = ((addr >> self._local_shift) << 6) | (addr & 63)
        return channel.access(local, is_write, now)

    def access_block(self, addr: int, nbytes: int, is_write: bool, now: int) -> int:
        """Access ``nbytes`` starting at ``addr`` line by line.

        Returns the completion time of the final line; consecutive lines
        stream across channels/banks so big blocks (e.g. a 4KB AIT entry
        fill) get realistic pipelined throughput, not nbytes/64 serial
        latencies.
        """
        completion = now
        for offset in range(0, max(nbytes, CACHE_LINE), CACHE_LINE):
            completion = max(completion, self.access(addr + offset, is_write, now))
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
