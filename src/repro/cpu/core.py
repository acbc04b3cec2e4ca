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
from itertools import islice
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
        self.backend = backend
        self.config = config or CoreConfig()
        self.stats = stats or StatsRegistry()
        self.caches = caches or CacheHierarchy(stats=self.stats)
        self.tlbs = tlbs or TlbHierarchy(stats=self.stats)
        self.pretranslation = pretranslation
        # share the backend's hooks so LLC-miss windows land in the same
        # flight record stream as the memory-side spans
        self.hooks = backend.hooks

        self.cycles = 0.0
        self.instructions = 0
        self.phase_stats = MemOpStats()
        self._outstanding: Deque[float] = deque()
        self._measure_cycles0 = 0.0
        self._measure_instr0 = 0

    # ------------------------------------------------------------------

    def execute(self, trace: Iterable, max_ops: Optional[int] = None) -> None:
        """Run at most ``max_ops`` ops of the trace (all when None).  Each
        op is a record in MemOp field order (see repro.cpu.system): a
        MemOp or a plain 8-tuple, unpacked by position.

        Per op, the only calls are the TLB hierarchy, one cache-hierarchy
        access per page-walk read and per data access, and the backend
        for each LLC miss, dirty victim and durable store (plus
        Pre-translation on a marked load).  An LLC miss reads the backend
        at the core's current time, after writing back that access's
        dirty victims at the same time.
        """
        cfg = self.config
        width = cfg.width
        mlp = cfg.mlp
        mkpt_cycles = cfg.mkpt_check_cycles
        cycle_ps = cfg.cycle_ps
        l1_cycles = self.caches.l1.config.latency_cycles
        access = self.caches.access
        translate = self.tlbs.translate
        install = self.tlbs.install
        read = self.backend.read
        write = self.backend.write
        hooks = self.hooks
        pretranslation = self.pretranslation
        outstanding = self._outstanding
        phase_instrs = self.phase_stats.instructions
        phase_cycles = self.phase_stats.cycles
        phase_llc = self.phase_stats.llc_misses
        phase_tlb = self.phase_stats.tlb_misses
        cycles = self.cycles
        instructions = self.instructions
        for (nonmem, vaddr, is_write, dependent, mkpt, next_vaddr, persistent,
             phase) in islice(trace, max_ops):
            start_cycles = cycles

            # front end: non-memory instructions retire at full width
            cycles += nonmem / width
            instructions += nonmem + 1

            # address translation; a walk is serialized cacheable reads
            needs_walk, tlb_cycles, walk_addrs = translate(vaddr)
            cycles += tlb_cycles
            if needs_walk:
                walk = 0.0
                for addr in walk_addrs:
                    level, lat, victims = access(addr, False)
                    for victim in victims:
                        write(victim, int(cycles * cycle_ps))
                    if level == "mem":
                        now = int(cycles * cycle_ps)
                        done = (self._recorded_read(addr, now)
                                if hooks.on else read(addr, now))
                        lat += (done - now) / cycle_ps
                    walk += lat
                cycles += walk
                install(vaddr)

            mkpt = mkpt and pretranslation is not None
            if mkpt:
                cycles += mkpt_cycles

            # data access
            level, lat, victims = access(vaddr, is_write)
            for victim in victims:
                write(victim, int(cycles * cycle_ps))
            llc_miss = level == "mem"
            if llc_miss:
                now = int(cycles * cycle_ps)
                done = (self._recorded_read(vaddr, now)
                        if hooks.on else read(vaddr, now))
                lat += (done - now) / cycle_ps
            if is_write:
                # stores retire via the buffer
                cycles += lat if lat < 4.0 else 4.0
                if persistent:
                    # durable store: clwb/nt-flush to the NVRAM write
                    # queue; cost is the WPQ accept latency, which grows
                    # under backpressure
                    now = int(cycles * cycle_ps)
                    cycles += (write(vaddr, now) - now) / cycle_ps
            elif llc_miss and not dependent:
                # overlap within the MLP window
                completion = cycles + lat
                if len(outstanding) >= mlp:
                    gate = outstanding.popleft()
                    if gate > cycles:
                        cycles = gate
                outstanding.append(completion)
                cycles += l1_cycles
            else:
                cycles += lat

            # Pre-translation: a marked chase load returns the TLB entry
            # for the next node along with the data (Section V-B).
            if mkpt and next_vaddr is not None:
                if pretranslation.observe(vaddr, next_vaddr):
                    install(next_vaddr)

            phase_instrs[phase] = phase_instrs.get(phase, 0) + nonmem + 1
            phase_cycles[phase] = (phase_cycles.get(phase, 0.0)
                                   + (cycles - start_cycles))
            if llc_miss:
                phase_llc[phase] = phase_llc.get(phase, 0) + 1
            if needs_walk:
                phase_tlb[phase] = phase_tlb.get(phase, 0) + 1

        # drain the window
        while outstanding:
            gate = outstanding.popleft()
            if gate > cycles:
                cycles = gate
        self.cycles = cycles
        self.instructions = instructions

    def _recorded_read(self, paddr: int, now: int) -> int:
        """Backend read of an LLC miss with an observer attached: the
        miss opens the outermost flight record, so the backend's own
        begin/end nest inside it."""
        flight = self.hooks.flight
        flight.begin("read", paddr, issue_ps=now)
        done = self.backend.read(paddr, now)
        flight.span("cpu.llc_miss", now, done, phase="window")
        flight.end(done)
        return done

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
