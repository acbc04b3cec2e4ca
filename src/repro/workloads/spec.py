"""Synthetic SPEC CPU trace generators (Table IV calibration).

Each generator reproduces the benchmark's memory intensity: its LLC MPKI
(by mixing a cache-resident hot set with cold traffic over the
benchmark's footprint), its LLC miss *rate* (cold references re-touch a
recent-page pool with the benchmark's L3 hit probability), and its
dominant access style (pointer-heavy benchmarks issue dependent loads;
streaming ones overlap).  These are what determine the IPC / miss-rate /
NVRAM-speedup comparisons of Figure 11.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.common.rng import make_rng
from repro.common.units import GIB, KIB
from repro.cpu.system import MemOp
from repro.engine.request import CACHE_LINE

#: average non-memory instructions between memory references
GAP = 20
#: cold accesses arrive in short sequential runs inside one page — the
#: spatial locality real codes have, which keeps TLB-walk traffic from
#: dwarfing the calibrated data-miss rate
COLD_BURST = 8
PAGE = 4 * KIB
#: MemOp's defaults after ``dependent`` (``mkpt``, ``next_vaddr``,
#: ``persistent``, ``phase``), which every SPEC record keeps
_TAIL = MemOp(0, 0)[4:]


@dataclass(frozen=True)
class SpecWorkload:
    """One Table IV row plus the behavioural knobs of its generator."""

    name: str
    suite: str
    llc_mpki: float
    footprint_bytes: int
    #: measured server LLC miss rate (Fig. 11b digitization)
    llc_miss_rate: float
    #: fraction of loads on dependence chains (pointer-heavy codes)
    dependent_frac: float
    write_frac: float

    @property
    def cold_fraction(self) -> float:
        """Fraction of memory references that must miss the LLC so the
        MPKI comes out at the Table IV value."""
        return min(1.0, self.llc_mpki * (GAP + 1) / 1000.0)

    @property
    def burst_start_prob(self) -> float:
        """Probability a non-burst op opens a cold burst such that the
        LLC MPKI lands on the Table IV value.

        Cold bursts split into fresh pages (always LLC misses) and
        recent-pool re-touches (cache hits, the pool being small enough
        to stay resident).  Every burst also costs roughly one LLC miss
        for its leaf page-table entry (GB-scale footprints put the leaf
        PTE array far beyond the L3), i.e. 1/B extra misses per cold op.
        Solving misses = f*mr + f/B = cold_fraction gives the total cold
        fraction f; with bursts of B ops, f = pB / (pB + (1 - p)) then
        solves to p = f / (B - (B - 1) f).
        """
        mr = max(1e-9, self.llc_miss_rate)
        f = self.cold_fraction / (mr + 1.0 / COLD_BURST)
        f = min(f, 0.999)
        b = COLD_BURST
        return min(1.0, f / (b - (b - 1) * f))


SPEC_WORKLOADS: List[SpecWorkload] = [
    SpecWorkload("gcc", "2006", 2.9, int(1.2 * GIB), 0.55, 0.3, 0.30),
    SpecWorkload("mcf", "2006", 27.1, int(9.1 * GIB), 0.70, 0.7, 0.25),
    SpecWorkload("sjeng", "2006", 2.7, int(0.63 * GIB), 0.35, 0.4, 0.30),
    SpecWorkload("libquantum", "2006", 3.4, int(2.3 * GIB), 0.60, 0.0, 0.25),
    SpecWorkload("omnetpp", "2006", 2.1, int(1.4 * GIB), 0.45, 0.6, 0.30),
    SpecWorkload("cactusADM", "2006", 2.0, int(2.2 * GIB), 0.40, 0.1, 0.35),
    SpecWorkload("lbm", "2006", 7.7, int(2.9 * GIB), 0.65, 0.0, 0.45),
    SpecWorkload("wrf", "2006", 2.4, int(1.0 * GIB), 0.38, 0.1, 0.35),
    SpecWorkload("gcc17", "2017", 21.5, int(1.1 * GIB), 0.68, 0.4, 0.30),
    SpecWorkload("mcf17", "2017", 26.3, int(8.7 * GIB), 0.72, 0.7, 0.25),
    SpecWorkload("omnetpp17", "2017", 2.1, int(0.96 * GIB), 0.44, 0.6, 0.30),
    SpecWorkload("deepsjeng17", "2017", 2.5, int(0.58 * GIB), 0.36, 0.4, 0.30),
    SpecWorkload("xz17", "2017", 2.7, int(1.8 * GIB), 0.42, 0.2, 0.30),
]


def spec_workload(name: str) -> SpecWorkload:
    for wl in SPEC_WORKLOADS:
        if wl.name == name:
            return wl
    raise KeyError(f"unknown SPEC workload {name!r}")


def spec_trace(name: str, nops: int, seed: int = 0,
               hot_set_bytes: int = 256 * KIB,
               recent_pool_pages: int = 256) -> Iterator[Tuple]:
    """Yield ``nops`` trace records reproducing the benchmark's Table IV
    profile.

    Each record is a plain 8-tuple in :class:`~repro.cpu.system.MemOp`
    field order (``MemOp._make`` names its fields): ``GAP`` non-memory
    instructions, the address, the write flag and, on a burst's first
    load, the dependence flag, followed by ``MemOp``'s own defaults for
    the other four fields.

    Hot references cycle through a cache-resident set.  Cold references
    come as ``COLD_BURST``-line sequential runs at page granularity;
    with probability ``llc_miss_rate`` the page is fresh (an LLC miss),
    otherwise it is re-drawn from a small recent-page pool that stays
    cache-resident — approximating the benchmark's measured LLC miss
    *rate* alongside its MPKI.
    """
    wl = spec_workload(name)
    rng = make_rng(seed, f"spec-{name}")
    random = rng.random
    randrange = rng.randrange
    write_frac = wl.write_frac
    llc_miss_rate = wl.llc_miss_rate
    dependent_frac = wl.dependent_frac
    hot_lines = max(1, hot_set_bytes // CACHE_LINE)
    npages = max(1, wl.footprint_bytes // PAGE)
    recent: deque = deque(maxlen=recent_pool_pages)
    hot_cursor = 0
    cold_base = hot_set_bytes
    burst_left = 0
    burst_addr = 0
    p_start = wl.burst_start_prob

    for _ in range(nops):
        is_write = random() < write_frac
        if burst_left > 0:
            burst_left -= 1
            burst_addr += CACHE_LINE
            yield (GAP, burst_addr, is_write, False) + _TAIL
            continue
        if random() < p_start:
            if recent and random() > llc_miss_rate:
                page = recent[randrange(len(recent))]
            else:
                page = randrange(npages)
                recent.append(page)
            burst_addr = cold_base + page * PAGE
            burst_left = COLD_BURST - 1
            dependent = (not is_write) and random() < dependent_frac
            yield (GAP, burst_addr, is_write, dependent) + _TAIL
        else:
            hot_cursor = (hot_cursor + 1) % hot_lines
            yield (GAP, hot_cursor * CACHE_LINE, is_write, False) + _TAIL
