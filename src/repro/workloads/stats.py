"""Trace introspection: summary statistics of MemOp streams.

Used to sanity-check generators against their intended profiles (the
Table IV calibration tests) and to summarize captured traces for users
deciding how to size a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from repro.cpu.system import MemOp
from repro.engine.request import CACHE_LINE


@dataclass
class TraceStats:
    """Aggregate profile of one MemOp stream."""

    ops: int = 0
    instructions: int = 0
    writes: int = 0
    persistent_writes: int = 0
    dependent_loads: int = 0
    mkpt_hints: int = 0
    unique_lines: int = 0
    unique_pages: int = 0
    footprint_bytes: int = 0
    top_line_share: float = 0.0

    @property
    def write_fraction(self) -> float:
        return self.writes / self.ops if self.ops else 0.0

    @property
    def dependent_fraction(self) -> float:
        loads = self.ops - self.writes
        return self.dependent_loads / loads if loads else 0.0

    @property
    def mem_ratio(self) -> float:
        """Memory references per instruction."""
        return self.ops / self.instructions if self.instructions else 0.0

    def render(self) -> str:
        return "\n".join([
            f"ops:               {self.ops}",
            f"instructions:      {self.instructions}",
            f"write fraction:    {self.write_fraction:.2f} "
            f"(persistent {self.persistent_writes})",
            f"dependent loads:   {self.dependent_fraction:.2f}",
            f"mkpt hints:        {self.mkpt_hints}",
            f"touched footprint: {self.footprint_bytes} bytes "
            f"({self.unique_lines} lines / {self.unique_pages} pages)",
            f"hottest line:      {self.top_line_share:.3f} of all accesses",
        ])


def analyze(trace: Iterable[MemOp]) -> TraceStats:
    """One pass over a trace of records in ``MemOp`` field order (see
    :class:`~repro.cpu.system.MemOp`); returns its profile."""
    stats = TraceStats()
    line_counts: Dict[int, int] = {}
    pages = set()
    for (nonmem, vaddr, is_write, dependent, mkpt, _next_vaddr, persistent,
         _phase) in trace:
        stats.ops += 1
        stats.instructions += nonmem + 1
        line = vaddr - vaddr % CACHE_LINE
        line_counts[line] = line_counts.get(line, 0) + 1
        pages.add(vaddr // 4096)
        if is_write:
            stats.writes += 1
            if persistent:
                stats.persistent_writes += 1
        elif dependent:
            stats.dependent_loads += 1
        if mkpt:
            stats.mkpt_hints += 1
    stats.unique_lines = len(line_counts)
    stats.unique_pages = len(pages)
    stats.footprint_bytes = len(line_counts) * CACHE_LINE
    if line_counts and stats.ops:
        stats.top_line_share = max(line_counts.values()) / stats.ops
    return stats
