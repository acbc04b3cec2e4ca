"""Figure 4 / Figure 8 — the full LENS characterization of the DIMM.

Runs all three probers against VANS and compares every inferred
parameter with the configured ground truth — the reproduction of the
paper's "blue numbers" (LENS-characterized) against its "red numbers"
(vendor-documented).
"""

from __future__ import annotations

from repro.common.units import pretty_size
from repro.experiments.common import ExperimentResult, Scale
from repro.lens.report import characterize
from repro import registry
from repro.vans import VansConfig


def run(scale: Scale = Scale.SMOKE) -> ExperimentResult:
    config = VansConfig()
    iterations = 32000 if scale is Scale.SMOKE else 120000
    chara = characterize(
        registry.factory("vans", config=config),
        interleaved_factory=registry.factory("vans-6dimm", config=config),
        overwrite_iterations=iterations,
    )
    truth = config.describe()
    truth["rmw_entry"] = config.dimm.rmw.entry_bytes
    truth["ait_entry"] = config.dimm.ait.entry_bytes
    # VANS keeps its on-DIMM buffers inclusive by construction: even
    # writes allocate into the AIT buffer (repro.vans.dimm)
    truth["hierarchy"] = "inclusive"
    verdicts = chara.compare_to_truth(truth)

    result = ExperimentResult(
        "fig8", "LENS-characterized parameters vs ground truth",
        columns=["parameter", "lens", "truth", "correct"],
    )

    def row(name, measured, expected):
        result.add_row(name, measured, expected,
                       "yes" if verdicts.get(name) else "NO")

    caps = chara.buffers.read_capacities + [0, 0]
    wcaps = chara.buffers.write_capacities + [0, 0]
    ents = chara.buffers.read_entry_sizes + [0, 0]
    row("rmw_capacity", pretty_size(caps[0]), pretty_size(truth["rmw_bytes"]))
    row("ait_capacity", pretty_size(caps[1]), pretty_size(truth["ait_bytes"]))
    row("wpq_capacity", pretty_size(wcaps[0]), pretty_size(truth["wpq_bytes"]))
    row("lsq_capacity", pretty_size(wcaps[1]), pretty_size(truth["lsq_bytes"]))
    row("rmw_entry", pretty_size(ents[0]), pretty_size(truth["rmw_entry"]))
    row("ait_entry", pretty_size(ents[1]), pretty_size(truth["ait_entry"]))
    if chara.policy is not None:
        row("wear_block", pretty_size(chara.policy.migration_granularity),
            pretty_size(truth["wear_block_bytes"]))
        row("interleave", pretty_size(chara.policy.interleave_granularity),
            pretty_size(truth["interleave_bytes"]))
    row("hierarchy", chara.buffers.hierarchy, truth["hierarchy"])

    correct = sum(1 for v in verdicts.values() if v)
    result.metrics["parameters_correct"] = correct
    result.metrics["parameters_total"] = len(verdicts)
    result.notes = chara.render()
    return result
