"""Prefetcher-noise model: why LENS disables hardware prefetchers.

LENS sets MSR 0x1a4 = 0xf to turn off all four CPU prefetchers before
profiling (Section III-B), because prefetched lines contaminate the
latency patterns the probers decode.  ``PrefetchingTarget`` puts that
noise back: a next-N-line streamer runs ahead of every demand read into
a small prefetch buffer, exactly the behaviour the L2 adjacent-line /
streamer prefetchers exhibit.  The ablation tests show the buffer
prober's capacity detection degrading once it is enabled.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.engine.request import CACHE_LINE
from repro.engine.stats import StatsRegistry
from repro.target import TargetSystem


class PrefetchingTarget(TargetSystem):
    """Wrap a memory system with a CPU-side next-line prefetcher."""

    def __init__(self, target: TargetSystem, degree: int = 2,
                 buffer_lines: int = 32, hit_ps: int = 8_000,
                 stats: Optional[StatsRegistry] = None) -> None:
        super().__init__()
        self.target = target
        self.degree = degree
        self.buffer_lines = buffer_lines
        self.hit_ps = hit_ps
        self.stats = stats or StatsRegistry()
        self._buffer: "OrderedDict[int, bool]" = OrderedDict()
        self._c_hits = self.stats.counter("prefetch.hits")
        self._c_issued = self.stats.counter("prefetch.issued")
        self.name = f"prefetching-{target.name}"

    def _insert(self, line: int) -> None:
        self._buffer[line] = True
        self._buffer.move_to_end(line)
        if len(self._buffer) > self.buffer_lines:
            self._buffer.popitem(last=False)

    def read(self, addr: int, now: int) -> int:
        line = addr - addr % CACHE_LINE
        if line in self._buffer:
            # demand hit on a prefetched line: core-side latency only
            self._buffer.pop(line)
            self._c_hits.add()
            done = now + self.hit_ps
        else:
            done = self.target.read(addr, now)
        # run the streamer ahead (its traffic shares the memory system,
        # perturbing every latency the prober measures)
        for i in range(1, self.degree + 1):
            pf_line = line + i * CACHE_LINE
            if pf_line not in self._buffer:
                self._c_issued.add()
                self.target.read(pf_line, done)
                self._insert(pf_line)
        return done

    def write(self, addr: int, now: int) -> int:
        return self.target.write(addr, now)

    def fence(self, now: int) -> int:
        return self.target.fence(now)

    def warm_fill(self, start_addr: int, length: int) -> None:
        self.target.warm_fill(start_addr, length)

    @property
    def hit_rate(self) -> float:
        total = self._c_hits.value + self.stats.counter(
            "prefetch.issued").value
        demand = self._c_hits.value
        return demand / max(1, total)
