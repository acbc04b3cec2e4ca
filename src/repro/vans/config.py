"""VANS configuration tree.

Every microarchitectural parameter LENS characterizes is an explicit
config field, with defaults set to the paper's Optane DIMM values
(Table V and Figure 8).  The modular layout mirrors the paper's "users
can reconfigure VANS based on new parameters" workflow: swap any subtree
to model a different NVRAM DIMM.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict

from repro.common.errors import ConfigError
from repro.common.units import GIB, KIB, MIB, NS, is_power_of_two
from repro.dram.timing import DDR4Timing, DDR4_2666
from repro.media.wear import WearConfig
from repro.media.xpoint import XPointConfig


@dataclass(frozen=True)
class WpqConfig:
    """iMC write pending queue (ADR domain).

    LENS finds a 512B effective capacity with 512B flush granularity
    (Figure 5a's first store inflection and Figure 6b).
    """

    entries: int = 8
    entry_bytes: int = 64

    @property
    def capacity_bytes(self) -> int:
        return self.entries * self.entry_bytes


@dataclass(frozen=True)
class LsqConfig:
    """On-DIMM load-store queue: 64 x 64B, write-combines to 256B."""

    entries: int = 64
    entry_bytes: int = 64
    combine_bytes: int = 256
    #: write-combining window: a partially filled 256B block is flushed
    #: downstream if no adjacent write arrives within this window.
    combine_window_ps: int = 200 * 1000  # 200ns

    @property
    def capacity_bytes(self) -> int:
        return self.entries * self.entry_bytes


@dataclass(frozen=True)
class RmwConfig:
    """On-DIMM SRAM read-modify-write buffer: 64 x 256B = 16KB."""

    entries: int = 64
    entry_bytes: int = 256

    @property
    def capacity_bytes(self) -> int:
        return self.entries * self.entry_bytes


@dataclass(frozen=True)
class AitConfig:
    """Address indirection table + data buffer in on-DIMM DRAM.

    4096 x 4KB data entries (16MB) and an 8B translation record per 4KB
    media page.  Every translation reads its record from the on-DIMM
    DRAM.
    """

    entries: int = 4096
    entry_bytes: int = 4 * KIB
    table_record_bytes: int = 8

    @property
    def capacity_bytes(self) -> int:
        return self.entries * self.entry_bytes


@dataclass(frozen=True)
class TimingConfig:
    """Fixed-latency components of the access path (calibrated so the
    end-to-end tiers land on the paper's measured curves).

    * ``frontend_read_ps``/``frontend_write_ps`` — CPU-side traversal
      (core, cache miss path, iMC entry) included in what LENS measures.
    * ``ddrt_*`` — DDR-T request/grant protocol hops between iMC and
      DIMM, fixed per hop (the calibration absorbs the average protocol
      cost).
    * ``lsq_proc_ps`` — LSQ scheduling slot.
    * ``rmw_hit_ps``/``rmw_fill_ps`` — SRAM array access / fill.
    * ``engine_op_ps`` — the DIMM controller's per-operation processing
      cost (the serial resource that bounds random-write throughput).
    """

    #: ablation: when False, the RMW engine releases a partial-write op
    #: as soon as it is issued instead of holding through merge+handoff
    #: (removes the random-small-write bottleneck; see the ablation
    #: experiments)
    engine_holds_partial: bool = True
    frontend_read_ps: int = 60 * NS
    #: nt-stores retire into iMC write-combining buffers quickly; the
    #: visible store cost is WPQ admission, so issue is faster than the
    #: WPQ drain and bursts beyond 512B queue up (Fig. 5a).
    frontend_write_ps: int = 10 * NS
    ddrt_request_ps: int = 15 * NS
    ddrt_grant_ps: int = 10 * NS
    lsq_proc_ps: int = 5 * NS
    rmw_hit_ps: int = 30 * NS
    rmw_fill_ps: int = 10 * NS
    engine_op_ps: int = 45 * NS
    #: WPQ -> DIMM LSQ transfer per 64B line over the (serial) DDR-T
    #: write path; this drain rate is what makes store bursts larger than
    #: the 512B WPQ visibly slower (Fig. 5a's first store inflection).
    wpq_xfer_ps: int = 40 * NS
    bus_line_ps: int = 10 * NS   # DIMM -> iMC data return per 64B


@dataclass(frozen=True)
class DimmConfig:
    """One NVRAM DIMM: queues, buffers, on-DIMM DRAM, media, wear.

    ``lazy_cache`` enables the Section V-C Lazy cache (a 3KB
    ADR-protected on-DIMM write cache for wear-hot blocks).
    """

    lsq: LsqConfig = field(default_factory=LsqConfig)
    rmw: RmwConfig = field(default_factory=RmwConfig)
    ait: AitConfig = field(default_factory=AitConfig)
    media: XPointConfig = field(default_factory=XPointConfig)
    wear: WearConfig = field(default_factory=WearConfig)
    dram_timing: DDR4Timing = DDR4_2666
    dram_capacity_bytes: int = 512 * MIB
    timing: TimingConfig = field(default_factory=TimingConfig)
    lazy_cache: bool = False

    def __post_init__(self) -> None:
        if self.ait.capacity_bytes > self.dram_capacity_bytes:
            raise ConfigError("AIT buffer cannot exceed on-DIMM DRAM capacity")
        if self.rmw.entry_bytes % self.lsq.combine_bytes:
            raise ConfigError("RMW entry size must be a multiple of the "
                              "LSQ combine granularity")
        # An AIT miss remaps its entry with one wear-block lookup and
        # fills it unit by unit, so an entry must lie inside one wear
        # block, be whole media units, and hold whole RMW blocks.
        if self.wear.block_bytes % self.ait.entry_bytes:
            raise ConfigError(
                f"AIT entry ({self.ait.entry_bytes}B) must fit evenly inside "
                f"one wear block ({self.wear.block_bytes}B)")
        if self.ait.entry_bytes % self.media.granularity:
            raise ConfigError(
                f"AIT entry ({self.ait.entry_bytes}B) must be a whole number "
                f"of media units ({self.media.granularity}B)")
        if self.ait.entry_bytes % self.rmw.entry_bytes:
            raise ConfigError(
                f"AIT entry ({self.ait.entry_bytes}B) must be a whole number "
                f"of RMW entries ({self.rmw.entry_bytes}B)")


@dataclass(frozen=True)
class VansConfig:
    """Whole NVRAM memory subsystem: iMC + interleaved DIMMs.

    Every system records its read and write latencies into the
    ``vans.read_latency_ps``/``vans.write_latency_ps`` histograms.
    """

    ndimms: int = 1
    interleave_bytes: int = 4 * KIB
    interleaved: bool = False
    wpq: WpqConfig = field(default_factory=WpqConfig)
    dimm: DimmConfig = field(default_factory=DimmConfig)

    def __post_init__(self) -> None:
        if self.ndimms < 1:
            raise ConfigError("need at least one DIMM")
        if not is_power_of_two(self.interleave_bytes):
            raise ConfigError("interleave granularity must be a power of two")
        if self.interleaved and self.ndimms < 2:
            raise ConfigError("interleaving requires at least two DIMMs")

    @property
    def total_capacity_bytes(self) -> int:
        return self.ndimms * self.dimm.media.capacity_bytes

    # -- convenience derivation helpers (the "modular design" API) -----

    def with_dimms(self, ndimms: int, interleaved: bool = None) -> "VansConfig":
        """Same system with a different DIMM population."""
        if interleaved is None:
            interleaved = ndimms > 1
        return replace(self, ndimms=ndimms, interleaved=interleaved)

    def with_media_capacity(self, capacity_bytes: int) -> "VansConfig":
        """Same system with different media capacity (Figure 10a)."""
        media = replace(self.dimm.media, capacity_bytes=capacity_bytes)
        return replace(self, dimm=replace(self.dimm, media=media))

    def with_lazy_cache(self, enabled: bool = True) -> "VansConfig":
        """Same system with the Lazy cache toggled (Section V-C)."""
        return replace(self, dimm=replace(self.dimm, lazy_cache=enabled))

    def describe(self) -> Dict[str, Any]:
        """Flat summary of the headline parameters (for reports/tests)."""
        return {
            "ndimms": self.ndimms,
            "interleaved": self.interleaved,
            "interleave_bytes": self.interleave_bytes,
            "wpq_bytes": self.wpq.capacity_bytes,
            "lsq_bytes": self.dimm.lsq.capacity_bytes,
            "rmw_bytes": self.dimm.rmw.capacity_bytes,
            "ait_bytes": self.dimm.ait.capacity_bytes,
            "media_bytes": self.dimm.media.capacity_bytes,
            "wear_block_bytes": self.dimm.wear.block_bytes,
        }


def optane_config(ndimms: int = 1, media_capacity: int = 4 * GIB) -> VansConfig:
    """The paper's validated Optane DIMM configuration (Table V)."""
    base = VansConfig()
    return base.with_dimms(ndimms).with_media_capacity(media_capacity)
