"""repro-bench: the model-metric gate over the experiment suites.

One invocation runs a named suite of experiments, records for each one
the simulated requests it executed and its model outputs (latencies,
hit rates, amplification factors, accuracy geomeans), stamps the run
with a manifest, and writes a schema'd ``BENCH_<date>.json``.  A later
invocation — or CI — diffs a fresh run against a committed baseline and
fails (exit 3) when any value moved by more than
:data:`METRIC_THRESHOLD`.

Every recorded value is deterministic, so any change means the *model*
changed.  Host time is measured elsewhere: by ``perfbench/`` (repeated
runs with a per-layer breakdown), by ``repro-prof``, and as ``wall_s``
on every ``repro-experiments --json`` result.
"""

from __future__ import annotations

import fnmatch
import os
import traceback
from typing import Dict, List, Mapping, Optional, Tuple

from repro.experiments.common import Scale
from repro.telemetry.manifest import MANIFEST_SCHEMA, run_manifest

#: bench document version, the only one accepted as a baseline
BENCH_SCHEMA = "repro.bench/3"

#: relative drift of a metric or request count that fails the gate
METRIC_THRESHOLD = 0.001

#: instrumentation counters that count one memory request each — the
#: denominator-free "how much simulated work happened" measure shared
#: by all target families
REQUEST_KEYS = (
    "imc.reads", "imc.writes", "imc.fences",
    "slowdram.reads", "slowdram.writes",
    "memmode.hits", "memmode.misses",
)

#: suite name -> experiment ids (resolved against the runner registry)
SUITES: Dict[str, Tuple[str, ...]] = {
    # CI smoke: fast, covers VANS + a baseline + the table inventory
    "smoke": ("fig1", "tables"),
    # the paper's validation figures
    "validation": ("fig9", "fig10", "fig11"),
    # LENS probing stack
    "lens": ("fig5", "fig6", "fig7"),
    # cloud profiling and optimizations: the only mkpt, persistent and
    # multi-phase traces through the CPU model
    "cloud": ("fig12", "fig13"),
    # the simulators that miss the buffer tiers, and LENS recovering
    # every planted parameter
    "characterize": ("fig3", "fig8"),
    # supporting studies beyond the paper's figures
    "extensions": ("scaling", "ablation", "energy", "numa", "bandwidth"),
}


def suite_ids(suite: str) -> List[str]:
    """Experiment ids for a named suite."""
    from repro.experiments.runner import validate_ids
    if suite not in SUITES:
        raise KeyError(
            f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}")
    return validate_ids(list(SUITES[suite]))


def _count_requests(instrumentation: Mapping[str, object]) -> int:
    return int(sum(instrumentation.get(key, 0) or 0
                   for key in REQUEST_KEYS))


def run_suite(suite: str, scale: Scale = Scale.SMOKE,
              seed: Optional[int] = None) -> Dict[str, object]:
    """Run a suite serially and return the bench document (not yet
    written).

    One raising experiment does not lose the whole run: its entry keeps
    the required keys (zeroed) plus an ``"error"`` traceback, and the
    document's ``"completed"`` flag flips to False so callers can
    persist the partial artifact and exit distinctly.
    """
    from repro.experiments.runner import DEFAULT_SEED, run_experiment
    base_seed = DEFAULT_SEED if seed is None else seed
    experiments: Dict[str, object] = {}
    completed = True
    for exp_id in suite_ids(suite):
        try:
            results = run_experiment(exp_id, scale, base_seed)
        except Exception:
            completed = False
            experiments[exp_id] = {"requests": 0, "metrics": {},
                                   "error": traceback.format_exc()}
            continue
        metrics: Dict[str, float] = {}
        for result in results:
            for key, value in result.metrics.items():
                if isinstance(value, bool) or not isinstance(
                        value, (int, float)):
                    continue
                metrics[f"{result.experiment}.{key}"] = value
        experiments[exp_id] = {
            "requests": _count_requests(results[0].instrumentation)
            if results else 0,
            "metrics": metrics,
        }
    return {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "scale": scale.value,
        "seed": base_seed,
        "completed": completed,
        "manifest": run_manifest(
            seed=base_seed, config={"suite": suite, "scale": scale.value}),
        "experiments": experiments,
    }


def validate_bench(doc: Mapping[str, object]) -> List[str]:
    """Structural check of a bench document; empty list when valid."""
    problems: List[str] = []
    if doc.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, expected "
                        f"{BENCH_SCHEMA!r}")
    for key in ("suite", "scale", "manifest", "experiments"):
        if key not in doc:
            problems.append(f"missing key {key!r}")
    # "completed" may be absent (read as True) but must be a bool when
    # present.
    if "completed" in doc and not isinstance(doc["completed"], bool):
        problems.append("'completed' is not a bool")
    manifest = doc.get("manifest")
    if isinstance(manifest, Mapping) and \
            manifest.get("schema") != MANIFEST_SCHEMA:
        problems.append("manifest has wrong schema")
    experiments = doc.get("experiments")
    if isinstance(experiments, Mapping):
        for exp_id, entry in experiments.items():
            if not isinstance(entry, Mapping):
                problems.append(f"experiment {exp_id!r} entry not a mapping")
                continue
            for key in ("requests", "metrics"):
                if key not in entry:
                    problems.append(f"experiment {exp_id!r} missing {key!r}")
    return problems


def find_baseline(directory: str, exclude: Optional[str] = None
                  ) -> Optional[str]:
    """Path of the latest ``BENCH_*.json`` in ``directory`` by name.

    The date-stamped naming scheme makes lexicographic order
    chronological.  ``exclude`` (a basename) skips the file a run is
    about to overwrite, so today's output never diffs against itself.
    """
    try:
        names = sorted(
            n for n in os.listdir(directory)
            if fnmatch.fnmatch(n, "BENCH_*.json") and n != exclude)
    except OSError:
        return None
    return os.path.join(directory, names[-1]) if names else None


class Delta:
    """One changed value: old vs new with relative change."""

    __slots__ = ("key", "old", "new")

    def __init__(self, key: str, old: float, new: float) -> None:
        self.key = key
        self.old = old
        self.new = new

    @property
    def rel(self) -> float:
        """Relative change (0 when both sides are 0)."""
        if self.old == 0:
            return 0.0 if self.new == 0 else float("inf")
        return (self.new - self.old) / abs(self.old)

    def render(self) -> str:
        rel = self.rel
        pct = "inf" if rel == float("inf") else f"{rel * 100:+.2f}%"
        return f"{self.key}: {self.old:g} -> {self.new:g} ({pct})"


def diff_bench(old: Mapping[str, object], new: Mapping[str, object]
               ) -> List[Delta]:
    """Every changed metric and request count between two documents.

    The threshold is applied by :func:`gate`, not here.  Experiments
    present on only one side are skipped — a suite change is not a
    regression.
    """
    deltas: List[Delta] = []
    old_exps = old.get("experiments", {})
    new_exps = new.get("experiments", {})
    for exp_id in sorted(set(old_exps) & set(new_exps)):
        old_entry, new_entry = old_exps[exp_id], new_exps[exp_id]
        # a crashed experiment's zeroed entry is not a regression signal
        if "error" in old_entry or "error" in new_entry:
            continue
        old_metrics = old_entry.get("metrics", {})
        new_metrics = new_entry.get("metrics", {})
        for key in sorted(set(old_metrics) & set(new_metrics)):
            if old_metrics[key] != new_metrics[key]:
                deltas.append(Delta(key, old_metrics[key], new_metrics[key]))
        # request counts are deterministic model behavior too
        if old_entry.get("requests") != new_entry.get("requests"):
            deltas.append(Delta(f"{exp_id}.requests",
                                old_entry.get("requests", 0),
                                new_entry.get("requests", 0)))
    return deltas


def gate(deltas: List[Delta]) -> List[Delta]:
    """The deltas that moved by more than :data:`METRIC_THRESHOLD`."""
    return [d for d in deltas if abs(d.rel) > METRIC_THRESHOLD]
