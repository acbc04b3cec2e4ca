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
from repro.common.units import GIB, NS, is_power_of_two
from repro.engine.queueing import BankedServer, Server
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
    """Banked 3D-XPoint media with 256B access units.

    Geometry and array timings are fixed at construction.  The access
    methods bump counters in place and pick a partition's FCFS
    :class:`Server` directly; :meth:`access_block` serves the partitions
    of all its units in line.
    """

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
        self._capacity = config.capacity_bytes
        self._gran = config.granularity
        self._npartitions = config.npartitions
        self._partitions = self.banks.banks
        self._read_ps = config.read_ps
        self._write_ps = config.write_ps

    def access(self, media_addr: int, is_write: bool, now: int) -> int:
        """One aligned 256B media access; returns completion time."""
        gran = self._gran
        unit = (media_addr % self._capacity) // gran
        if is_write:
            self._writes.value += 1
            self._bytes_written.value += gran
            service = self._write_ps
        else:
            self._reads.value += 1
            self._bytes_read.value += gran
            service = self._read_ps
        h = self.hooks
        if h.on:
            # latency-spike episodes and UE retry/ECC cost on reads in an
            # uncorrectable region
            service += h.faults.media_extra_ps(unit * gran, is_write, now,
                                               service)
        partition = unit % self._npartitions
        done = self._partitions[partition].serve(now, service)
        if h.on:
            h.flight.span("media", now, done,
                          phase="write" if is_write else "read",
                          partition=partition)
        return done

    def access_block(self, media_addr: int, nbytes: int, is_write: bool,
                     now: int, skip: int = -1, port: Optional[Server] = None,
                     port_ps: int = 0) -> int:
        """Access ``nbytes`` (e.g. a 4KB AIT entry fill) as 256B units,
        in address order, all issued at ``now`` across the partitions.

        Each unit is the :meth:`access` of its address; the unit at
        address ``skip`` is left out (an AIT fill has read its critical
        unit already).  Without a ``port`` this returns the last unit's
        completion (``now`` if none is later).  With one, every unit
        then crosses that FCFS server for ``port_ps``, in address order,
        and this returns the last crossing.
        """
        gran = self._gran
        capacity = self._capacity
        npartitions = self._npartitions
        partitions = self._partitions
        service = self._write_ps if is_write else self._read_ps
        h = self.hooks
        on = h.on
        # the port's FCFS arithmetic, kept in locals; without a port a
        # zero-length crossing leaves the running maximum
        busy = now if port is None else port.busy_until
        served = 0
        for addr in range(media_addr - media_addr % gran,
                          media_addr + (nbytes if nbytes > gran else gran),
                          gran):
            if addr == skip:
                continue
            unit = (addr % capacity) // gran
            cost = service
            if on:
                cost += h.faults.media_extra_ps(unit * gran, is_write, now,
                                                cost)
            partition = unit % npartitions
            bank = partitions[partition]
            done = bank.busy_until
            if now > done:
                done = now
            done += cost
            bank.busy_until = done
            bank.total_busy += cost
            bank.served += 1
            if on:
                h.flight.span("media", now, done,
                              phase="write" if is_write else "read",
                              partition=partition)
            if done > busy:
                busy = done
            busy += port_ps
            served += 1
        if is_write:
            self._writes.value += served
            self._bytes_written.value += served * gran
        else:
            self._reads.value += served
            self._bytes_read.value += served * gran
        if port is not None:
            port.busy_until = busy
            port.total_busy += served * port_ps
            port.served += served
        return busy

    def publish(self, stats, prefix: str) -> None:
        """Register pull-gauges for the partition servers (aggregate
        served/busy plus occupancy of the busiest partition) — evaluated
        only at snapshot time, zero cost on the access path.  They close
        over the banks, not over the media, which holds the registry."""
        banks = self.banks
        banks.publish(stats, f"{prefix}.banks")
        stats.gauge(f"{prefix}.partitions", lambda: len(banks))
        stats.gauge(f"{prefix}.max_busy_until",
                    lambda: max(b.busy_until for b in banks.banks))

    @property
    def reads(self) -> int:
        return self._reads.value

    @property
    def writes(self) -> int:
        return self._writes.value
