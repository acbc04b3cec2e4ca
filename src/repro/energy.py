"""Energy accounting over the simulator's event counters.

An extension beyond the paper's evaluation: per-operation energy costs
applied to the counters every component already maintains.  The
constants are order-of-magnitude figures from the public 3D-XPoint /
DDR4 literature (documented per field); the *relative* comparisons —
write energy dominating read energy, wear migrations costing full-block
rewrites, the Lazy cache trimming media traffic — are the meaningful
outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.vans.system import VansSystem

PJ = 1e-12


@dataclass(frozen=True)
class EnergyCosts:
    """Energy per event, in picojoules."""

    #: 3D-XPoint 256B array read / program (PCM-class cells)
    media_read_pj: float = 2_000.0
    media_write_pj: float = 15_000.0
    #: one on-DIMM DDR4 64B access (activate amortized in)
    dram_access_pj: float = 400.0
    #: SRAM structures (RMW hit, LSQ slot)
    sram_op_pj: float = 20.0
    #: controller engine op (scheduling, ECC, RMW merge)
    engine_op_pj: float = 150.0
    #: one 64KB wear-leveling migration = 256 reads + 256 writes
    def migration_pj(self) -> float:
        return 256 * (self.media_read_pj + self.media_write_pj)


@dataclass
class EnergyReport:
    """Joules by component, plus totals."""

    by_component: Dict[str, float] = field(default_factory=dict)

    @property
    def total_j(self) -> float:
        return sum(self.by_component.values())

    def fraction(self, component: str) -> float:
        total = self.total_j
        return self.by_component.get(component, 0.0) / total if total else 0.0

    def render(self) -> str:
        lines = ["energy breakdown:"]
        for name, joules in sorted(self.by_component.items(),
                                   key=lambda kv: -kv[1]):
            lines.append(f"  {name:<16} {joules * 1e6:10.3f} uJ "
                         f"({self.fraction(name) * 100:5.1f}%)")
        lines.append(f"  {'total':<16} {self.total_j * 1e6:10.3f} uJ")
        return "\n".join(lines)


def energy_of(system: VansSystem,
              costs: EnergyCosts = EnergyCosts()) -> EnergyReport:
    """Compute the energy a VansSystem's activity so far consumed."""
    counters = system.instrument_snapshot()
    report = EnergyReport()

    media_reads = counters.get("media.reads", 0)
    media_writes = counters.get("media.writes", 0)
    report.by_component["media-read"] = media_reads * costs.media_read_pj * PJ
    report.by_component["media-write"] = (media_writes
                                          * costs.media_write_pj * PJ)

    # each DIMM's on-DIMM DRAM (AIT and RMW buffer) counts in its own
    # registry, not in the system's
    dram_ops = sum(dimm.dram.stats.counter("dram.reads").value
                   + dimm.dram.stats.counter("dram.writes").value
                   for dimm in system.imc.dimms)
    report.by_component["on-dimm-dram"] = dram_ops * costs.dram_access_pj * PJ

    sram_ops = counters.get("dimm.rmw_hits", 0) + counters.get(
        "lazy.absorbed_writes", 0)
    report.by_component["sram"] = sram_ops * costs.sram_op_pj * PJ

    engine_ops = (counters.get("dimm.combined_write_ops", 0)
                  + counters.get("dimm.partial_write_ops", 0)
                  + counters.get("dimm.rmw_misses", 0))
    report.by_component["engine"] = engine_ops * costs.engine_op_pj * PJ

    migrations = counters.get("wear.migrations", 0)
    report.by_component["wear-migration"] = (migrations
                                             * costs.migration_pj() * PJ)
    return report
