"""3D-XPoint media timing model.

Industrial documents (Micron [37], Intel [23]) describe the media as
accessed in 256-byte units; reads and writes have asymmetric array
timings and the dies are partitioned so independent 256B accesses can
proceed in parallel.  We model each partition as an FCFS server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigError
from repro.common.units import GIB, NS, align_down, is_power_of_two
from repro.engine.queueing import BankedServer
from repro.engine.stats import StatsRegistry
from repro.hooks import Hooks


@dataclass(frozen=True)
class XPointConfig:
    """Media geometry and array timings.

    Defaults are calibrated so the full VANS pipeline lands on the
    paper's measured latency tiers (AIT-buffer-miss loads ~ 400ns/CL).
    """

    capacity_bytes: int = 4 * GIB
    granularity: int = 256
    npartitions: int = 16
    read_ps: int = 160 * NS    # one 256B array read
    write_ps: int = 480 * NS   # one 256B array write (program)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.granularity):
            raise ConfigError(f"granularity must be a power of two: {self.granularity}")
        if not is_power_of_two(self.npartitions):
            raise ConfigError(f"npartitions must be a power of two: {self.npartitions}")
        if self.capacity_bytes % self.granularity:
            raise ConfigError("capacity must be a multiple of the access granularity")


class XPointMedia:
    """Banked 3D-XPoint media with 256B access units."""

    def __init__(self, config: XPointConfig, stats: StatsRegistry = None,
                 hooks: Optional[Hooks] = None) -> None:
        self.config = config
        self.banks = BankedServer(config.npartitions)
        self.stats = stats or StatsRegistry()
        self.hooks = hooks if hooks is not None else Hooks()
        self._reads = self.stats.counter("media.reads")
        self._writes = self.stats.counter("media.writes")
        self._bytes_read = self.stats.counter("media.bytes_read")
        self._bytes_written = self.stats.counter("media.bytes_written")

    def access(self, media_addr: int, is_write: bool, now: int) -> int:
        """One aligned 256B media access; returns completion time."""
        cfg = self.config
        gran = cfg.granularity
        unit = (media_addr % cfg.capacity_bytes) // gran
        media_addr = unit * gran
        if is_write:
            self._writes.add()
            self._bytes_written.add(gran)
            service = cfg.write_ps
        else:
            self._reads.add()
            self._bytes_read.add(gran)
            service = cfg.read_ps
        h = self.hooks
        if h.on:
            # latency-spike episodes and UE retry/ECC cost on reads in an
            # uncorrectable region
            service += h.faults.media_extra_ps(media_addr, is_write, now,
                                               service)
        partition = unit % cfg.npartitions
        done = self.banks.serve(partition, now, service)
        if h.on:
            h.flight.span("media", now, done,
                          phase="write" if is_write else "read",
                          partition=partition)
        return done

    def access_block(self, media_addr: int, nbytes: int, is_write: bool, now: int) -> int:
        """Access ``nbytes`` (e.g. a 4KB AIT entry fill) as parallel 256B
        units across partitions; returns the last completion time."""
        cfg = self.config
        completion = now
        end = media_addr + max(nbytes, cfg.granularity)
        addr = align_down(media_addr, cfg.granularity)
        while addr < end:
            completion = max(completion, self.access(addr, is_write, now))
            addr += cfg.granularity
        return completion

    def publish(self, bus, prefix: str) -> None:
        """Register pull-gauges for the partition servers (aggregate
        served/busy plus occupancy of the busiest partition) — evaluated
        only at snapshot time, zero cost on the access path."""
        self.banks.publish(bus, f"{prefix}.banks")
        bus.gauge(f"{prefix}.partitions", lambda: len(self.banks))
        bus.gauge(f"{prefix}.max_busy_until",
                  lambda: max(b.busy_until for b in self.banks.banks))

    @property
    def reads(self) -> int:
        return self._reads.value

    @property
    def writes(self) -> int:
        return self._writes.value

    def reset_stats(self) -> None:
        self._reads.reset()
        self._writes.reset()
        self._bytes_read.reset()
        self._bytes_written.reset()
        self.banks.reset()

    def reset(self) -> None:
        """As-built state: idle partitions, zero counters (warm-cache
        lifecycle; the media holds no data, only timing state)."""
        self.reset_stats()
