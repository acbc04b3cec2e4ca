"""Lazy cache (Section V-C).

A tiny on-DIMM cache (LZ1 + LZ2, 3KB total, ADR-protected) for
frequently *written* data.  It is filled by reusing the AIT's wear
records: when a write triggers (or approaches) wear-leveling, the target
block's priority rises and subsequent writes to it are absorbed by the
Lazy cache instead of being written through to media — cutting write
amplification and wear-leveling migrations for workloads with
concentrated writes (YCSB's Top10 lines).

A Write Lookaside Buffer (WLB) keeps the addresses of the Lazy cache
entries; dirty evictions drain to media through the normal path.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from repro.common.units import KIB
from repro.engine.stats import StatsRegistry
from repro.hooks import Hooks


@dataclass(frozen=True)
class LazyCacheConfig:
    """Section V-D setup: 1KB LZ1 (64B lines) + 2KB LZ2 (128B lines)."""

    lz1_bytes: int = 1 * KIB
    lz1_line: int = 64
    lz2_bytes: int = 2 * KIB
    lz2_line: int = 128
    #: wear-count fraction of the migration threshold above which a
    #: block becomes a Lazy-cache candidate
    hot_fraction: float = 0.5
    #: SRAM hit service time
    hit_ps: int = 25_000

    @property
    def lz1_entries(self) -> int:
        return self.lz1_bytes // self.lz1_line

    @property
    def lz2_entries(self) -> int:
        return self.lz2_bytes // self.lz2_line


class LazyCache:
    """Two-level inclusive write cache with a WLB of hot addresses."""

    def __init__(self, config: Optional[LazyCacheConfig] = None,
                 stats: Optional[StatsRegistry] = None,
                 hooks: Optional[Hooks] = None) -> None:
        self.config = config or LazyCacheConfig()
        self.stats = stats or StatsRegistry()
        self.hooks = hooks if hooks is not None else Hooks()
        # WLB: wear-hot 256B block addresses eligible for caching
        self._wlb: "OrderedDict[int, bool]" = OrderedDict()
        self._wlb_entries = 64
        # LZ1/LZ2 tag stores (inclusive: LZ1 subset of LZ2)
        self._lz1: "OrderedDict[int, bool]" = OrderedDict()
        self._lz2: "OrderedDict[int, bool]" = OrderedDict()
        self._c_absorbed = self.stats.counter("lazy.absorbed_writes")
        self._c_evicted = self.stats.counter("lazy.evictions")
        self._c_marked = self.stats.counter("lazy.marked_blocks")

    # -- WLB management (driven by AIT wear records) ---------------------

    def mark_hot(self, block_addr: int) -> None:
        """AIT wear record crossed the priority threshold for this block
        (called during/near a wear-leveling migration)."""
        if block_addr not in self._wlb:
            self._c_marked.add()
        self._wlb[block_addr] = True
        self._wlb.move_to_end(block_addr)
        while len(self._wlb) > self._wlb_entries:
            self._wlb.popitem(last=False)

    def is_hot(self, block_addr: int) -> bool:
        return block_addr in self._wlb

    # -- write path -------------------------------------------------------

    def absorb(self, block_addr: int, now: int = 0) -> List[int]:
        """Cache a write to a hot block at simulated time ``now``.

        Returns the list of dirty block addresses evicted (the caller
        writes those through to media).
        """
        self._c_absorbed.add()
        evicted: List[int] = []
        cfg = self.config
        self._lz1[block_addr] = True
        self._lz1.move_to_end(block_addr)
        if len(self._lz1) > cfg.lz1_entries:
            self._lz1.popitem(last=False)  # inclusive: still in LZ2
        self._lz2[block_addr] = True
        self._lz2.move_to_end(block_addr)
        if len(self._lz2) > cfg.lz2_entries:
            victim, dirty = self._lz2.popitem(last=False)
            self._lz1.pop(victim, None)
            if dirty:
                self._c_evicted.add()
                evicted.append(victim)
        h = self.hooks
        if h.on and h.flight.active:
            fl = h.flight
            fl.instant("dimm.lazy", "absorb", now, block=f"0x{block_addr:x}")
            for victim in evicted:
                fl.instant("dimm.lazy", "evict", now, block=f"0x{victim:x}")
        return evicted

    def contains(self, block_addr: int) -> bool:
        return block_addr in self._lz2

    def publish(self, stats, prefix: str) -> None:
        """Register occupancy pull-gauges (WLB / LZ1 / LZ2 entry counts)
        on a stats registry — snapshot-time only, zero write-path cost.
        They close over the tag stores, not over this cache, which holds
        the registry."""
        wlb, lz1, lz2 = self._wlb, self._lz1, self._lz2
        stats.gauge(f"{prefix}.wlb_entries", lambda: len(wlb))
        stats.gauge(f"{prefix}.lz1_entries", lambda: len(lz1))
        stats.gauge(f"{prefix}.lz2_entries", lambda: len(lz2))

    def flush(self) -> List[int]:
        """Drain everything (power-fail / fence path via ADR)."""
        dirty = [addr for addr, d in self._lz2.items() if d]
        self._lz1.clear()
        self._lz2.clear()
        return dirty

    def invalidate(self) -> None:
        """Drop every WLB, LZ1 and LZ2 entry: the SRAM holds nothing
        after a power cut or cold restart (counters keep their totals)."""
        self._wlb.clear()
        self._lz1.clear()
        self._lz2.clear()

    @property
    def absorbed(self) -> int:
        return self._c_absorbed.value
