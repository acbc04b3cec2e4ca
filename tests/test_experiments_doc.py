"""EXPERIMENTS.md quotes the committed metric baselines.

Every model metric EXPERIMENTS.md prints from the validation suite
(fig9-fig11), the LENS suite (fig5-fig7), the cloud suite (fig12-fig13)
or the characterize suite (fig3, fig8) must appear in its row at the
precision the document prints it, read from the latest committed
``bench/validation``, ``bench/lens``, ``bench/cloud`` and
``bench/characterize`` baselines.  A deliberate baseline
bump therefore fails here until the document is regenerated with it.
"""

from __future__ import annotations

import json
import os
from typing import Callable, List, Tuple

import pytest

from repro.telemetry.bench import find_baseline

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

#: (suite dir, metric key, row label, rendering at the printed precision);
#: the label is a table row's first cell, or a bullet's opening words
QUOTES: List[Tuple[str, str, str, Callable[[float], str]]] = [
    ("lens", "fig5c.raw_over_rpw_small", "RaW vs R+W, small regions",
     lambda v: f"RaW/R+W = {v:.1f}"),
    ("lens", "fig5c.raw_over_rpw_large", "RaW vs R+W, ≥LSQ reach",
     lambda v: f"ratio {v:.2f}"),
    ("lens", "fig7a.interleave_granularity", "interleave granularity",
     lambda v: f"{v:d}"),
    ("lens", "fig7a.speedup_at_16k", "interleave speedup @16KB",
     lambda v: f"{v:.2f}x"),
    ("lens", "fig7b.tail_interval_iters", "overwrite tail interval",
     lambda v: f"{v:,.0f} exactly"),
    ("lens", "fig7b.tail_magnitude_us", "tail magnitude",
     lambda v: f"{v:.1f} us"),
    ("lens", "fig7b.tail_over_median", "tail magnitude",
     lambda v: f"{v:.0f}x median"),
    ("validation", "fig9a.acc_lat_ld", "lat-ld accuracy",
     lambda v: f"{v:.2f}"),
    ("validation", "fig9a.acc_lat_st", "lat-st accuracy",
     lambda v: f"{v:.2f}"),
    ("validation", "fig9b.acc_lat_ld", "6-DIMM curve difference (9b)",
     lambda v: f"lat-ld acc {v:.2f}"),
    ("validation", "fig9e.average_accuracy", "average (9e)",
     lambda v: f"{v:.1%}"),
    ("validation", "fig10a.max_relative_spread", "10a media capacity",
     lambda v: f"max spread {v:.1%}"),
    ("validation", "fig11.ipc_accuracy_geomean", "IPC vs server (11a)",
     lambda v: f"{v:.0%}"),
    ("validation", "fig11.llc_miss_accuracy_geomean", "LLC miss rate (11b)",
     lambda v: f"{v:.0%}"),
    ("validation", "fig11.vans_speedup_accuracy_geomean",
     "VANS speedup (11c/d)", lambda v: f"{v:.0%}"),
    ("validation", "fig11.ramulator_speedup_accuracy_geomean",
     "Ramulator-PCM speedup (11d)", lambda v: f"{v:.0%}"),
    ("cloud", "fig12b.migrations", "YCSB top-10 wear-leveling vs rest",
     lambda v: f"{v:d} vs 0 migrations"),
    ("cloud", "fig12b.write_amplification", "YCSB write amplification",
     lambda v: f"{v:.1f}x"),
    ("cloud", "fig13.lazy_geomean_speedup", "Lazy cache speedup",
     lambda v: f"~{v - 1:.0%} geomean"),
    ("cloud", "fig13.tlb_mpki_mean_ratio", "Pre-translation TLB MPKI",
     lambda v: f"−{1 - v:.0%} avg"),
    ("characterize", "fig8.parameters_correct",
     "LENS vs planted ground truth", lambda v: f"**{v:d}/"),
    ("characterize", "fig8.parameters_total",
     "LENS vs planted ground truth", lambda v: f"/{v:d} correct**"),
]


def _metrics(suite: str) -> dict:
    path = find_baseline(os.path.join(ROOT, "bench", suite))
    assert path is not None, f"no committed {suite} baseline"
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {key: value for entry in doc["experiments"].values()
            for key, value in entry["metrics"].items()}


def _reproduction(label: str) -> str:
    """The reproduction (last) cell of the table row whose first cell
    is ``label``, or the whole bullet line opening with ``label``."""
    with open(os.path.join(ROOT, "EXPERIMENTS.md"), encoding="utf-8") as fh:
        lines = [line.rstrip() for line in fh
                 if line.startswith((f"| {label} |", f"* {label}"))]
    assert len(lines) == 1, f"{label!r} opens {len(lines)} lines"
    line = lines[0]
    if line.startswith("|"):
        return line.rstrip("|").split("|")[-1]
    return line


@pytest.mark.parametrize("suite,key,label,render", QUOTES,
                         ids=[q[1] for q in QUOTES])
def test_experiments_md_quotes_baseline(suite, key, label, render):
    value = _metrics(suite)[key]
    assert render(value) in _reproduction(label)
