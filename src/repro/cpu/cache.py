"""Set-associative write-back caches.

Timing is returned to the caller (the core model) rather than simulated
per cycle: an access reports the level that hit and the on-chip latency
down to it; the core adds the memory latency of LLC misses and overlaps
them within its ROB window.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from typing import DefaultDict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.units import KIB, MIB, is_power_of_two
from repro.engine.request import CACHE_LINE
from repro.engine.stats import StatsRegistry


@dataclass(frozen=True)
class CacheConfig:
    """Geometry + access latency (in core cycles) of one cache level."""

    name: str
    capacity_bytes: int
    ways: int
    latency_cycles: int

    def __post_init__(self) -> None:
        lines = self.capacity_bytes // CACHE_LINE
        if lines % self.ways:
            raise ConfigError(f"{self.name}: lines not divisible by ways")
        if not is_power_of_two(lines // self.ways):
            raise ConfigError(f"{self.name}: set count must be a power of two")

    @property
    def nsets(self) -> int:
        return self.capacity_bytes // CACHE_LINE // self.ways


#: Table V cache hierarchy.
L1D_CONFIG = CacheConfig("L1D", 32 * KIB, 8, 4)
L2_CONFIG = CacheConfig("L2", 1 * MIB, 16, 14)
L3_CONFIG = CacheConfig("L3", 32 * MIB, 16, 42)


class Cache:
    """One write-back, write-allocate, LRU set-associative cache level.

    Lines are 64 B: a byte address's tag is its line number ``addr >> 6``
    and its set is ``tag & (nsets - 1)``.  Each set is an ``OrderedDict``
    of tag -> dirty in LRU order, built on its first touch.  The LRU walk
    itself lives in :meth:`CacheHierarchy.access`.
    """

    def __init__(self, config: CacheConfig, stats: Optional[StatsRegistry] = None):
        self.config = config
        self.stats = stats or StatsRegistry()
        self._sets: "DefaultDict[int, OrderedDict[int, bool]]" = (
            defaultdict(OrderedDict))
        self._mask = config.nsets - 1
        self._ways = config.ways
        self._hits = self.stats.counter(f"{config.name}.hits")
        self._misses = self.stats.counter(f"{config.name}.misses")
        self._writebacks = self.stats.counter(f"{config.name}.writebacks")

    def contains(self, addr: int) -> bool:
        tag = addr >> 6
        cset = self._sets.get(tag & self._mask)
        return cset is not None and tag in cset

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        self._hits.reset()
        self._misses.reset()
        self._writebacks.reset()


class CacheHierarchy:
    """L1D -> L2 -> L3 composition returning (level_hit, cycles, misses).

    The returned cycle count covers the on-chip portion only; an L3 miss
    additionally costs the memory backend's latency, which the core adds
    (and overlaps across its ROB window).
    """

    def __init__(
        self,
        l1: CacheConfig = L1D_CONFIG,
        l2: CacheConfig = L2_CONFIG,
        l3: CacheConfig = L3_CONFIG,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.stats = stats or StatsRegistry()
        self.l1 = Cache(l1, self.stats)
        self.l2 = Cache(l2, self.stats)
        self.l3 = Cache(l3, self.stats)
        # on-chip cycles of a hit in L1 / L2 / L3 (or of a full miss)
        self._l1_cycles = l1.latency_cycles
        self._l2_cycles = self._l1_cycles + l2.latency_cycles
        self._l3_cycles = self._l2_cycles + l3.latency_cycles

    def access(self, addr: int, is_write: bool) -> Tuple[str, int, List[int]]:
        """Returns (deepest level that hit or "mem", on-chip cycles,
        dirty victim addresses to write back to memory).

        The line is installed in every level above the one that hit.  A
        dirty victim hands its dirty state to the nearest lower level
        still holding the line, or becomes a memory write-back when none
        does; only L1 takes the write's dirty bit.
        """
        tag = addr >> 6
        l1 = self.l1
        set1 = l1._sets[tag & l1._mask]
        if tag in set1:
            set1.move_to_end(tag)
            if is_write:
                set1[tag] = True
            l1._hits.value += 1
            return "l1", self._l1_cycles, []
        l1._misses.value += 1
        l2 = self.l2
        l3 = self.l3
        sets2 = l2._sets
        sets3 = l3._sets
        set2 = sets2[tag & l2._mask]
        l2_hit = tag in set2
        if l2_hit:
            set2.move_to_end(tag)
            l2._hits.value += 1
        else:
            l2._misses.value += 1
            set3 = sets3[tag & l3._mask]
            l3_hit = tag in set3
            if l3_hit:
                set3.move_to_end(tag)
                l3._hits.value += 1
            else:
                l3._misses.value += 1
        victims: List[int] = []
        if len(set1) >= l1._ways:
            vtag, dirty = set1.popitem(False)
            if dirty:
                l1._writebacks.value += 1
                vset = sets2[vtag & l2._mask]
                if vtag not in vset:
                    vset = sets3[vtag & l3._mask]
                if vtag in vset:
                    vset[vtag] = True
                else:
                    victims.append(vtag << 6)
        set1[tag] = is_write
        if l2_hit:
            return "l2", self._l2_cycles, victims
        if len(set2) >= l2._ways:
            vtag, dirty = set2.popitem(False)
            if dirty:
                l2._writebacks.value += 1
                vset = sets3[vtag & l3._mask]
                if vtag in vset:
                    vset[vtag] = True
                else:
                    victims.append(vtag << 6)
        set2[tag] = False
        if l3_hit:
            return "l3", self._l3_cycles, victims
        if len(set3) >= l3._ways:
            vtag, dirty = set3.popitem(False)
            if dirty:
                l3._writebacks.value += 1
                victims.append(vtag << 6)
        set3[tag] = False
        return "mem", self._l3_cycles, victims

    @property
    def llc_misses(self) -> int:
        return self.l3.misses

    @property
    def llc_miss_rate(self) -> float:
        return self.l3.miss_rate

    def reset_stats(self) -> None:
        for cache in (self.l1, self.l2, self.l3):
            cache.reset_stats()
