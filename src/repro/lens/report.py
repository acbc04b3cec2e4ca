"""LENS characterization report (the Figure 4/8 parameter summary) and
the paper's static comparison tables.

``characterize`` runs all three probers against a target and assembles
the full microarchitecture picture; ``Characterization.render()``
produces the human-readable table, and ``compare_to_truth`` scores the
inferences against a known configuration (how we validate LENS itself —
the paper validated against vendor confirmation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.common.units import pretty_size
from repro.target import TargetSystem

if TYPE_CHECKING:
    # annotations only: the probers load with the first characterize(),
    # so a caller that reads TABLE_I/TABLE_II loads none of them
    from repro.lens.probers.buffer import BufferReport
    from repro.lens.probers.mapping import MappingReport
    from repro.lens.probers.performance import PerformanceReport
    from repro.lens.probers.policy import PolicyReport

#: Table I — profiling-tool capability matrix (static, from the paper).
TABLE_I = {
    "columns": ["latency", "bandwidth", "addr-mapping", "buffer-size",
                "buffer-granularity", "buffer-hierarchy",
                "migration-frequency", "migration-granularity",
                "long-tail-latency"],
    "rows": {
        "MLC": ["yes", "yes", "no", "no", "no", "no", "no", "no", "no"],
        "perf": ["yes", "yes", "no", "no", "no", "no", "no", "no", "no"],
        "DRAMA": ["partial", "partial", "yes", "no", "no", "no", "no",
                  "no", "no"],
        "LENS": ["yes"] * 9,
    },
}

#: Table II — LENS probers, microbenchmarks, and what they reveal.
TABLE_II = [
    ("Buffer", "PtrChasing (64B block)", "buffer overflow", "buffer size"),
    ("Buffer", "PtrChasing (various block)", "r/w amplification",
     "buffer entry size"),
    ("Buffer", "Read-after-write", "data fast-forwarding",
     "buffer hierarchy"),
    ("Policy", "Sequential/strided write", "interleaving speedup",
     "interleaving scheme"),
    ("Policy", "Overwrite (256B region)", "data migration",
     "migration latency"),
    ("Policy", "Overwrite (various region)", "data migration",
     "migration block size"),
    ("Perf.", "Strided read", "stable amplification",
     "internal bandwidth"),
    ("Perf.", "PtrChasing + miss rates", "n/a", "internal latency"),
]


@dataclass
class Characterization:
    """Everything LENS inferred about one NVRAM system."""

    target_name: str
    buffers: BufferReport
    policy: Optional[PolicyReport] = None
    performance: Optional[PerformanceReport] = None
    mapping: Optional[MappingReport] = None

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """Figure 8-style parameter summary."""
        lines = [f"LENS characterization of {self.target_name}",
                 "=" * 48]
        caps = self.buffers.read_capacities
        ents = self.buffers.read_entry_sizes
        for i, cap in enumerate(caps):
            entry = pretty_size(ents[i]) if i < len(ents) else "?"
            name = ("RMW buffer", "AIT buffer")[i] if i < 2 else f"read L{i+1}"
            lines.append(f"  {name:<12} capacity {pretty_size(cap):>6} "
                         f"entry {entry}")
        wcaps = self.buffers.write_capacities
        wents = self.buffers.write_entry_sizes
        for i, cap in enumerate(wcaps):
            entry = pretty_size(wents[i]) if i < len(wents) else "?"
            name = ("WPQ", "LSQ")[i] if i < 2 else f"write L{i+1}"
            lines.append(f"  {name:<12} capacity {pretty_size(cap):>6} "
                         f"combine/flush {entry}")
        lines.append(f"  hierarchy    {self.buffers.hierarchy}")
        if self.policy is not None:
            lines.append(
                f"  wear-leveling: block {pretty_size(self.policy.migration_granularity)}"
                f", migration {self.policy.migration_latency_us:.1f}us every "
                f"~{self.policy.migration_interval_iters:.0f} overwrites"
            )
            if self.policy.interleave_granularity:
                lines.append(
                    f"  interleaving: {pretty_size(self.policy.interleave_granularity)}"
                    f" granularity, {self.policy.interleave_speedup:.2f}x speedup"
                )
        if self.mapping is not None and self.mapping.dimm_select_bits:
            bits = self.mapping.dimm_select_bits
            lines.append(
                f"  addr mapping: DIMM-select bits {bits[:4]}"
                f"{'...' if len(bits) > 4 else ''} "
                f"(granularity {pretty_size(self.mapping.interleave_granularity)})"
            )
        if self.performance is not None:
            for name, lat in self.performance.level_latency_ns.items():
                bw = self.performance.level_bandwidth_gbs.get(name)
                bw_txt = f", {bw:.1f} GB/s" if bw else ""
                lines.append(f"  {name:<12} read {lat:.0f} ns{bw_txt}")
        return "\n".join(lines)

    def compare_to_truth(self, truth: Dict[str, object],
                         tolerance: float = 1.0) -> Dict[str, bool]:
        """Score inferences against known parameters.

        ``truth`` keys: rmw_bytes, ait_bytes, wpq_bytes, lsq_bytes,
        wear_block_bytes, interleave_bytes, rmw_entry, ait_entry, and
        optionally hierarchy (``"inclusive"`` or ``"independent"``).  A
        size detection within a factor of ``1 + tolerance`` counts as
        correct (capacity probes quantize to the sweep grid); the
        hierarchy must match exactly.
        """

        def close(measured: Optional[int], expected: Optional[int]) -> bool:
            if not measured or not expected:
                return False
            ratio = measured / expected
            return 1.0 / (1.0 + tolerance) <= ratio <= (1.0 + tolerance)

        caps = self.buffers.read_capacities
        wcaps = self.buffers.write_capacities
        ents = self.buffers.read_entry_sizes
        out = {
            "rmw_capacity": close(caps[0] if caps else None,
                                  truth.get("rmw_bytes")),
            "ait_capacity": close(caps[1] if len(caps) > 1 else None,
                                  truth.get("ait_bytes")),
            "wpq_capacity": close(wcaps[0] if wcaps else None,
                                  truth.get("wpq_bytes")),
            "lsq_capacity": close(wcaps[1] if len(wcaps) > 1 else None,
                                  truth.get("lsq_bytes")),
            "rmw_entry": close(ents[0] if ents else None,
                               truth.get("rmw_entry")),
            "ait_entry": close(ents[1] if len(ents) > 1 else None,
                               truth.get("ait_entry")),
        }
        if self.policy is not None:
            out["wear_block"] = close(self.policy.migration_granularity,
                                      truth.get("wear_block_bytes"))
            if truth.get("interleave_bytes"):
                out["interleave"] = close(self.policy.interleave_granularity,
                                          truth.get("interleave_bytes"))
        if truth.get("hierarchy"):
            out["hierarchy"] = self.buffers.hierarchy == truth["hierarchy"]
        return out


def characterize(
    target_factory: Callable[[], TargetSystem],
    interleaved_factory: Optional[Callable[[], TargetSystem]] = None,
    run_policy: bool = True,
    run_performance: bool = True,
    overwrite_iterations: int = 40000,
    tail_scan_bytes: Optional[int] = None,
) -> Characterization:
    """Run the full LENS suite against a system.

    ``tail_scan_bytes`` sizes the migration-granularity probe; it must
    sit between 1x and 2x the wear threshold in 256B units for the
    frequency drop to be observable (the default suits the real
    ~14,000-write threshold).
    """
    from repro.lens.probers.buffer import BufferProber
    from repro.lens.probers.mapping import MappingProber
    from repro.lens.probers.performance import PerformanceProber
    from repro.lens.probers.policy import PolicyProber

    name = target_factory().name
    buffer_report = BufferProber(target_factory).run()

    policy_report = None
    if run_policy:
        kwargs = {}
        if tail_scan_bytes is not None:
            kwargs["tail_scan_bytes"] = tail_scan_bytes
        policy_report = PolicyProber(
            target_factory,
            interleaved_factory=interleaved_factory,
            overwrite_iterations=overwrite_iterations,
            **kwargs,
        ).run()

    perf_report = None
    if run_performance:
        caps = buffer_report.read_capacities or [16 * 1024, 16 * 1024 * 1024]
        ents = buffer_report.read_entry_sizes or [256, 4096]
        perf_report = PerformanceProber(
            target_factory,
            read_capacities=caps[:2],
            entry_sizes=(ents + [256, 4096])[:2],
        ).run()

    mapping_report = None
    if interleaved_factory is not None:
        mapping_report = MappingProber(interleaved_factory).run()

    return Characterization(
        target_name=name,
        buffers=buffer_report,
        policy=policy_report,
        performance=perf_report,
        mapping=mapping_report,
    )
