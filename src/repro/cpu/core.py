"""Trace-driven out-of-order-window core model.

Instructions between memory operations retire at the pipeline width;
memory operations traverse the TLB and cache hierarchy, and LLC misses
overlap up to the core's memory-level parallelism (the ROB/MSHR reach).
Dependent loads (pointer chasing) serialize on their own completion —
the distinction that makes Redis/LinkedList behave like latency-bound
chains while streaming workloads stay bandwidth-bound.

This is the same modeling altitude as the interval-style simulators the
architecture community uses when gem5-level detail is unavailable; Table
V parameters (width, ROB depth, frequencies) set the constants.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Optional

from repro.cpu.cache import CacheHierarchy
from repro.cpu.tlb import TlbHierarchy
from repro.engine.stats import StatsRegistry
from repro.target import TargetSystem


@dataclass(frozen=True)
class CoreConfig:
    """Core pipeline parameters (Table V)."""

    width: int = 4
    freq_mhz: float = 2200.0
    #: outstanding LLC misses the window can cover (MSHRs / ROB reach)
    mlp: int = 10
    #: extra cycles charged to a marked (mkpt) load for the
    #: check-before-read uncertain-bit path
    mkpt_check_cycles: int = 2

    @property
    def cycle_ps(self) -> float:
        return 1e6 / self.freq_mhz


@dataclass
class MemOpStats:
    """Per-phase cycle/instruction attribution (Figure 12a)."""

    instructions: Dict[str, int] = field(default_factory=dict)
    cycles: Dict[str, float] = field(default_factory=dict)
    llc_misses: Dict[str, int] = field(default_factory=dict)
    tlb_misses: Dict[str, int] = field(default_factory=dict)

    def charge(self, phase: str, instrs: int, cycles: float,
               llc_miss: bool, tlb_miss: bool) -> None:
        self.instructions[phase] = self.instructions.get(phase, 0) + instrs
        self.cycles[phase] = self.cycles.get(phase, 0.0) + cycles
        if llc_miss:
            self.llc_misses[phase] = self.llc_misses.get(phase, 0) + 1
        if tlb_miss:
            self.tlb_misses[phase] = self.tlb_misses.get(phase, 0) + 1

    def cpi(self, phase: str) -> float:
        instrs = self.instructions.get(phase, 0)
        return self.cycles.get(phase, 0.0) / instrs if instrs else 0.0


class TraceCore:
    """Executes a MemOp trace against caches + TLB + a memory backend."""

    def __init__(
        self,
        backend: TargetSystem,
        config: Optional[CoreConfig] = None,
        caches: Optional[CacheHierarchy] = None,
        tlbs: Optional[TlbHierarchy] = None,
        pretranslation=None,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        from repro.flight.recorder import NULL_FLIGHT
        self.backend = backend
        self.config = config or CoreConfig()
        self.stats = stats or StatsRegistry()
        self.caches = caches or CacheHierarchy(stats=self.stats)
        self.tlbs = tlbs or TlbHierarchy(stats=self.stats)
        self.pretranslation = pretranslation
        # share the backend's flight recorder so LLC-miss windows land in
        # the same record stream as the memory-side spans
        self.flight = getattr(backend, "flight", NULL_FLIGHT)

        # CoreConfig.cycle_ps divides on every read; the core reads it
        # on each LLC miss and write-back
        self._cycle_ps = self.config.cycle_ps

        self.cycles = 0.0
        self.instructions = 0
        self.phase_stats = MemOpStats()
        self._outstanding: Deque[float] = deque()
        self._measure_cycles0 = 0.0
        self._measure_instr0 = 0

    # ------------------------------------------------------------------

    def _now_ps(self) -> int:
        return int(self.cycles * self._cycle_ps)

    def _mem_read_cycles(self, paddr: int) -> float:
        now = self._now_ps()
        fl = self.flight
        if fl.enabled:
            # outermost begin: this LLC miss owns the flight record, the
            # backend's own begin/end nests inside it
            fl.begin("read", paddr, issue_ps=now)
        done = self.backend.read(paddr, now)
        if fl.enabled:
            fl.span("cpu.llc_miss", now, done, phase="window")
            fl.end(done)
        return (done - now) / self._cycle_ps

    def _cached_access(self, paddr: int, is_write: bool):
        """Cache access; LLC misses go to the backend.  Returns
        (latency_cycles, was_llc_miss)."""
        level, cycles, victims = self.caches.access(paddr, is_write)
        for victim in victims:
            self.backend.write(victim, self._now_ps())
        if level != "mem":
            return cycles, False
        return cycles + self._mem_read_cycles(paddr), True

    def _walk(self, walk_addrs) -> float:
        """Page-table walk: serialized cacheable reads."""
        cycles = 0.0
        for addr in walk_addrs:
            lat, _ = self._cached_access(addr, False)
            cycles += lat
        return cycles

    # ------------------------------------------------------------------

    def execute(self, trace: Iterable, max_ops: Optional[int] = None) -> None:
        """Run the trace.  Each op is a MemOp (see repro.cpu.system)."""
        cfg = self.config
        executed = 0
        for op in trace:
            start_cycles = self.cycles

            # front end: non-memory instructions retire at full width
            self.cycles += op.nonmem / cfg.width
            self.instructions += op.nonmem + 1

            # address translation
            tlb_missed = False
            needs_walk, tlb_cycles, walk_addrs = self.tlbs.translate(op.vaddr)
            self.cycles += tlb_cycles
            if needs_walk:
                tlb_missed = True
                self.cycles += self._walk(walk_addrs)
                self.tlbs.install(op.vaddr)

            if op.mkpt and self.pretranslation is not None:
                self.cycles += cfg.mkpt_check_cycles

            # data access
            llc_miss = False
            if op.is_write:
                lat, llc_miss = self._cached_access(op.vaddr, True)
                self.cycles += min(lat, 4.0)  # stores retire via the buffer
                if op.persistent:
                    # durable store: clwb/nt-flush to the NVRAM write
                    # queue; cost is the WPQ accept latency, which grows
                    # under backpressure
                    now = self._now_ps()
                    accept = self.backend.write(op.vaddr, now)
                    self.cycles += (accept - now) / self._cycle_ps
            else:
                lat, llc_miss = self._cached_access(op.vaddr, False)
                if llc_miss and not op.dependent:
                    # overlap within the MLP window
                    completion = self.cycles + lat
                    if len(self._outstanding) >= cfg.mlp:
                        gate = self._outstanding.popleft()
                        if gate > self.cycles:
                            self.cycles = gate
                    self._outstanding.append(completion)
                    self.cycles += self.caches.l1.config.latency_cycles
                else:
                    self.cycles += lat

            # Pre-translation: a marked chase load returns the TLB entry
            # for the next node along with the data (Section V-B).
            if (op.mkpt and self.pretranslation is not None
                    and op.next_vaddr is not None):
                if self.pretranslation.observe(op.vaddr, op.next_vaddr):
                    self.tlbs.install(op.next_vaddr)

            self.phase_stats.charge(
                op.phase, op.nonmem + 1, self.cycles - start_cycles,
                llc_miss, tlb_missed,
            )
            executed += 1
            if max_ops is not None and executed >= max_ops:
                break

        # drain the window
        while self._outstanding:
            gate = self._outstanding.popleft()
            if gate > self.cycles:
                self.cycles = gate

    # ------------------------------------------------------------------

    def begin_measurement(self) -> None:
        """End the warm-up phase: zero the architectural statistics while
        keeping all cache/TLB/queue state and the global clock (the
        paper's two-stage warm-up + execution protocol, Section IV-D)."""
        self._measure_cycles0 = self.cycles
        self._measure_instr0 = self.instructions
        self.phase_stats = MemOpStats()
        self.caches.reset_stats()
        self.tlbs.reset_stats()

    @property
    def measured_cycles(self) -> float:
        return self.cycles - self._measure_cycles0

    @property
    def measured_instructions(self) -> int:
        return self.instructions - self._measure_instr0

    @property
    def ipc(self) -> float:
        cycles = self.measured_cycles
        return self.measured_instructions / cycles if cycles else 0.0

    @property
    def elapsed_ps(self) -> int:
        return int(self.measured_cycles * self.config.cycle_ps)
