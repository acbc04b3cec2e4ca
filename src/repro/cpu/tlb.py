"""TLB hierarchy and page-table walker.

Geometry follows Table V: 64-entry 4-way L1 DTLB and a 1536-entry 12-way
shared STLB over 4KB pages.  An STLB miss triggers a 4-level radix-table
walk; each level is one cacheable memory read, so walk cost depends on
how warm the page-table lines are in the data caches — the behaviour the
paper's Figure 5d/7d TLB-miss-rate controls rely on.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import ConfigError
from repro.common.units import is_power_of_two
from repro.engine.stats import StatsRegistry

PAGE_SIZE = 4096
WALK_LEVELS = 4


@dataclass(frozen=True)
class TlbConfig:
    """One TLB level."""

    name: str
    entries: int
    ways: int
    latency_cycles: int = 1

    def __post_init__(self) -> None:
        if self.entries % self.ways:
            raise ConfigError(f"{self.name}: entries not divisible by ways")
        if not is_power_of_two(self.entries // self.ways):
            raise ConfigError(f"{self.name}: set count must be a power of two")

    @property
    def nsets(self) -> int:
        return self.entries // self.ways


L1_DTLB_CONFIG = TlbConfig("DTLB", 64, 4, 1)
STLB_CONFIG = TlbConfig("STLB", 1536, 12, 9)


class Tlb:
    """One set-associative TLB with LRU replacement.

    Pages are 4 KiB: an address's VPN is ``vaddr >> 12`` and its set is
    ``vpn & (nsets - 1)``.
    """

    def __init__(self, config: TlbConfig, stats: Optional[StatsRegistry] = None):
        self.config = config
        self.stats = stats or StatsRegistry()
        self._sets: List["OrderedDict[int, int]"] = [
            OrderedDict() for _ in range(config.nsets)
        ]
        self._mask = config.nsets - 1
        self._ways = config.ways
        self._hits = self.stats.counter(f"{config.name}.hits")
        self._misses = self.stats.counter(f"{config.name}.misses")

    def lookup(self, vaddr: int) -> bool:
        vpn = vaddr >> 12
        tset = self._sets[vpn & self._mask]
        if vpn in tset:
            tset.move_to_end(vpn)
            self._hits.value += 1
            return True
        self._misses.value += 1
        return False

    def install(self, vaddr: int, pfn: int = 0) -> None:
        vpn = vaddr >> 12
        tset = self._sets[vpn & self._mask]
        if vpn in tset:
            tset.move_to_end(vpn)
            return
        if len(tset) >= self._ways:
            tset.popitem(last=False)
        tset[vpn] = pfn

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    def reset_stats(self) -> None:
        self._hits.reset()
        self._misses.reset()


class TlbHierarchy:
    """DTLB + STLB + walker.

    ``translate`` returns (stlb_missed, cycles_before_walk, walk_addrs):
    the caller performs the walk reads through its cache hierarchy (they
    are ordinary cacheable accesses) and installs the entry.
    """

    #: base physical address of the page-table arena (kept clear of the
    #: workload heap so walk lines have their own cache footprint)
    PT_BASE = 1 << 44

    def __init__(self, stats: Optional[StatsRegistry] = None) -> None:
        self.stats = stats or StatsRegistry()
        self.dtlb = Tlb(L1_DTLB_CONFIG, self.stats)
        self.stlb = Tlb(STLB_CONFIG, self.stats)
        self._walks = self.stats.counter("tlb.walks")
        # cycles of a DTLB hit, and of an STLB lookup after a DTLB miss
        self._dtlb_cycles = L1_DTLB_CONFIG.latency_cycles
        self._stlb_cycles = self._dtlb_cycles + STLB_CONFIG.latency_cycles

    def translate(self, vaddr: int):
        """Returns (needs_walk, cycles, walk_read_addrs)."""
        if self.dtlb.lookup(vaddr):
            return False, self._dtlb_cycles, []
        if self.stlb.lookup(vaddr):
            self.dtlb.install(vaddr)
            return False, self._stlb_cycles, []
        self._walks.value += 1
        return True, self._stlb_cycles, self.walk_addresses(vaddr)

    def walk_addresses(self, vaddr: int) -> List[int]:
        """Physical addresses of the 4 page-table entries for ``vaddr``.

        Each radix level indexes 9 bits of the VPN; PTEs are 8 bytes, so
        consecutive pages share upper-level PTE cache lines — giving the
        realistic locality that makes sequential scans walk cheaply and
        pointer chasing walk expensively.
        """
        vpn = vaddr // PAGE_SIZE
        addrs = []
        for level in range(WALK_LEVELS):
            shift = 9 * (WALK_LEVELS - 1 - level)
            index = vpn >> shift
            addrs.append(self.PT_BASE + (level << 32) + index * 8)
        return addrs

    def install(self, vaddr: int, pfn: int = 0) -> None:
        """Install a translation in both levels (end of walk, or a
        Pre-translation fill from the NVRAM DIMM)."""
        self.stlb.install(vaddr, pfn)
        self.dtlb.install(vaddr, pfn)

    @property
    def stlb_misses(self) -> int:
        return self.stlb.misses

    def reset_stats(self) -> None:
        self.dtlb.reset_stats()
        self.stlb.reset_stats()
        self._walks.reset()
