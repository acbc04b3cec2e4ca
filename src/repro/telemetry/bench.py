"""repro-bench: continuous benchmarking over the experiment suite.

One invocation runs a named suite of experiments, measures each one
(wall-clock seconds, simulated requests executed, requests per wall
second, key model outputs), stamps the whole run with a manifest, and
writes a schema'd ``BENCH_<date>.json``.  A later invocation — or CI —
diffs a fresh run against the latest committed baseline and fails
(exit 3) on regressions beyond a threshold.

Two families of signals, gated separately because they drift for
different reasons:

* **metrics** — the experiments' model outputs (latencies, hit rates,
  amplification factors).  Deterministic: any change means the *model*
  changed, so CI gates on these with a tight threshold;
* **perf** — wall seconds, requests/sec, peak RSS.  Machine-dependent:
  gate locally when chasing performance, not in shared CI.
"""

from __future__ import annotations

import fnmatch
import os
import time
import traceback
from typing import Dict, List, Mapping, Optional, Tuple

from repro.experiments.common import Scale
from repro.telemetry.manifest import MANIFEST_SCHEMA, run_manifest

#: bench document version (bump on breaking key changes).  /2 adds a
#: per-entry ``kernel_stats`` key (the shard plan) to the kernel suite;
#: /1 documents remain valid baselines (the extra key is never gated).
BENCH_SCHEMA = "repro.bench/2"

#: schemas accepted as baselines by :func:`validate_bench`
BENCH_SCHEMAS = ("repro.bench/1", BENCH_SCHEMA)

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
    # everything in the registry
    "full": (),
    # the shard plane: sharded + vectorized vs the one-shard scalar
    # path on identical deterministic streams (not experiment ids —
    # handled by run_suite directly)
    "kernel": (),
}


def suite_ids(suite: str) -> List[str]:
    """Experiment ids for a named suite (``full`` -> whole registry)."""
    from repro.experiments.runner import REGISTRY, validate_ids
    if suite not in SUITES:
        raise KeyError(
            f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}")
    if suite == "kernel":
        from repro.shard.bench import CASES
        return [f"shard.{case}" for case in CASES]
    ids = SUITES[suite]
    return validate_ids(list(ids)) if ids else list(REGISTRY)


def _peak_rss_kb() -> Optional[int]:
    """Peak RSS of this process in KiB (None where unsupported)."""
    try:
        import resource
    except ImportError:          # non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if os.uname().sysname == "Darwin":
        return usage // 1024
    return usage


def _count_requests(instrumentation: Mapping[str, object]) -> int:
    return int(sum(instrumentation.get(key, 0) or 0
                   for key in REQUEST_KEYS))


def _error_entry(start: float) -> Dict[str, object]:
    """Zeroed entry for a crashed experiment, with its traceback."""
    return {
        "wall_s": round(time.time() - start, 4),
        "requests": 0,
        "requests_per_s": 0.0,
        "metrics": {},
        "error": traceback.format_exc(),
    }


def _document(suite: str, scale: Scale, seed: int, completed: bool,
              config: Optional[Mapping[str, object]],
              experiments: Dict[str, object], total_wall: float,
              total_requests: int) -> Dict[str, object]:
    """The bench document around a suite's experiment entries."""
    return {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "scale": scale.value,
        "seed": seed,
        "completed": completed,
        "manifest": run_manifest(
            seed=seed,
            config=dict(config or {}, suite=suite, scale=scale.value)),
        "experiments": experiments,
        "totals": {
            "wall_s": round(total_wall, 4),
            "requests": total_requests,
            "requests_per_s": round(total_requests / total_wall, 2)
            if total_wall > 0 else 0.0,
            "peak_rss_kb": _peak_rss_kb(),
        },
    }


def run_suite(suite: str, scale: Scale = Scale.SMOKE,
              seed: Optional[int] = None,
              config: Optional[Mapping[str, object]] = None
              ) -> Dict[str, object]:
    """Run a suite and return the bench document (not yet written).

    Experiments run serially (perf numbers from a loaded parallel
    machine would gate on scheduler noise, not code).

    One raising experiment does not lose the whole run: its entry keeps
    the required numeric keys (zeroed) plus an ``"error"`` traceback,
    and the document's ``"completed"`` flag flips to False so callers
    can persist the partial artifact and exit distinctly.
    """
    from repro.experiments.runner import DEFAULT_SEED, run_experiment
    base_seed = DEFAULT_SEED if seed is None else seed
    if suite == "kernel":
        return _run_kernel_suite(scale, base_seed, config)
    ids = suite_ids(suite)
    experiments: Dict[str, object] = {}
    total_wall = 0.0
    total_requests = 0
    completed = True
    for exp_id in ids:
        start = time.time()
        try:
            results = run_experiment(exp_id, scale, base_seed)
        except Exception:
            completed = False
            experiments[exp_id] = _error_entry(start)
            continue
        wall_s = time.time() - start
        requests = _count_requests(results[0].instrumentation) \
            if results else 0
        metrics: Dict[str, float] = {}
        for result in results:
            for key, value in result.metrics.items():
                if isinstance(value, bool) or not isinstance(
                        value, (int, float)):
                    continue
                metrics[f"{result.experiment}.{key}"] = value
        experiments[exp_id] = {
            "wall_s": round(wall_s, 4),
            "requests": requests,
            "requests_per_s": round(requests / wall_s, 2) if wall_s > 0
            else 0.0,
            "metrics": metrics,
        }
        total_wall += wall_s
        total_requests += requests
    return _document(suite, scale, base_seed, completed, config,
                     experiments, total_wall, total_requests)


def _run_kernel_suite(scale: Scale, seed: int,
                      config: Optional[Mapping[str, object]]
                      ) -> Dict[str, object]:
    """Bench document for the kernel suite: the shard plane's cases.

    Each case is one pseudo-experiment ``shard.<case>``: the standard
    ``wall_s``/``requests``/``requests_per_s`` report the sharded,
    vectorized path, while the entry additionally carries the one-shard
    scalar path's numbers from the same run and the same-runner
    ``speedup`` — which is what the relative gate checks (see
    :func:`kernel_gate`), keeping the pass/fail machine-independent.
    The only gated *metric* is the deterministic merged-document
    checksum: both paths must produce it identically here, and any
    cross-commit drift means the simulated stream changed.
    """
    from repro.shard.bench import PAPER_MULTIPLIER, SMOKE_REQUESTS
    from repro.shard.bench import run_shard_bench
    nrequests = SMOKE_REQUESTS * (
        PAPER_MULTIPLIER if scale is Scale.PAPER else 1)
    experiments: Dict[str, object] = {}
    total_wall = 0.0
    total_requests = 0
    completed = True
    start = time.time()
    try:
        cases = run_shard_bench(nrequests=nrequests, seed=seed,
                                shards=(config or {}).get("shards"))
    except Exception:
        completed = False
        experiments["shard"] = _error_entry(start)
        cases = {}
    for case, numbers in cases.items():
        wall_s = float(numbers["optimized_wall_s"])
        events = int(numbers["events"])
        experiments[f"shard.{case}"] = {
            "wall_s": round(wall_s, 4),
            "requests": events,
            "requests_per_s": round(float(numbers["optimized_events_per_s"]),
                                    2),
            "metrics": {
                f"shard.{case}.order_checksum":
                    float(numbers["order_checksum"]),
            },
            "legacy_wall_s": round(float(numbers["legacy_wall_s"]), 4),
            "legacy_events_per_s": round(
                float(numbers["legacy_events_per_s"]), 2),
            "speedup": round(float(numbers["speedup"]), 3),
            # the shard plan (engine, shard count, epochs) — recorded
            # for observability, never gated: diff_bench only compares
            # metrics/requests/wall_s/requests_per_s
            "kernel_stats": numbers["kernel_stats"],
        }
        total_wall += wall_s
        total_requests += events
    return _document("kernel", scale, seed, completed, config,
                     experiments, total_wall, total_requests)


def kernel_gate(doc: Mapping[str, object]) -> List[str]:
    """Same-runner relative gate for a kernel-suite document.

    Returns one violation line per case where the sharded, vectorized
    path was *slower* than the one-shard scalar path in the same run
    (``speedup < 1``).  Both paths ran back-to-back on the same
    machine, so this gate is load- and hardware-independent in a way
    absolute thresholds are not.
    """
    violations: List[str] = []
    experiments = doc.get("experiments", {})
    if not isinstance(experiments, Mapping):
        return violations
    for exp_id in sorted(experiments):
        entry = experiments[exp_id]
        if not isinstance(entry, Mapping) or "speedup" not in entry:
            continue
        speedup = entry["speedup"]
        if isinstance(speedup, (int, float)) and speedup < 1.0:
            violations.append(
                f"{exp_id}: sharded path slower than the one-shard "
                f"scalar path (speedup {speedup:.3f}x, "
                f"{entry.get('requests_per_s', 0):.0f} vs "
                f"{entry.get('legacy_events_per_s', 0):.0f} requests/s)")
    return violations


def validate_bench(doc: Mapping[str, object]) -> List[str]:
    """Structural check of a bench document; empty list when valid."""
    problems: List[str] = []
    if doc.get("schema") not in BENCH_SCHEMAS:
        problems.append(f"schema is {doc.get('schema')!r}, expected "
                        f"one of {', '.join(BENCH_SCHEMAS)}")
    for key in ("suite", "scale", "manifest", "experiments", "totals"):
        if key not in doc:
            problems.append(f"missing key {key!r}")
    # "completed" is optional (documents written before partial-run
    # support lack it and stay valid baselines) but must be a bool
    # when present.
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
            for key in ("wall_s", "requests", "requests_per_s", "metrics"):
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
    """One compared value: old vs new with relative change."""

    __slots__ = ("key", "kind", "old", "new")

    def __init__(self, key: str, kind: str, old: float, new: float) -> None:
        self.key = key
        self.kind = kind          # "metric" | "perf"
        self.old = old
        self.new = new

    @property
    def rel(self) -> float:
        """Relative change (0 when both sides are 0)."""
        if self.old == 0:
            return 0.0 if self.new == 0 else float("inf")
        return (self.new - self.old) / abs(self.old)

    def exceeds(self, threshold: float) -> bool:
        return abs(self.rel) > threshold

    def render(self) -> str:
        rel = self.rel
        pct = "inf" if rel == float("inf") else f"{rel * 100:+.2f}%"
        return (f"{self.kind:6s} {self.key}: "
                f"{self.old:g} -> {self.new:g} ({pct})")


def diff_bench(old: Mapping[str, object], new: Mapping[str, object]
               ) -> Dict[str, List[Delta]]:
    """Compare two bench documents.

    Returns ``{"metrics": [...], "perf": [...]}`` with every *changed*
    value; thresholds are applied by :func:`gate`, not here.
    Experiments present on only one side are skipped — a suite change is
    not a regression.
    """
    metric_deltas: List[Delta] = []
    perf_deltas: List[Delta] = []
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
                metric_deltas.append(Delta(
                    key, "metric", old_metrics[key], new_metrics[key]))
        # request counts are deterministic model behavior too
        if old_entry.get("requests") != new_entry.get("requests"):
            metric_deltas.append(Delta(
                f"{exp_id}.requests", "metric",
                old_entry.get("requests", 0), new_entry.get("requests", 0)))
        for key in ("wall_s", "requests_per_s"):
            old_v, new_v = old_entry.get(key, 0), new_entry.get(key, 0)
            if old_v != new_v:
                perf_deltas.append(Delta(f"{exp_id}.{key}", "perf",
                                         old_v, new_v))
    return {"metrics": metric_deltas, "perf": perf_deltas}


def gate(deltas: Mapping[str, List[Delta]], mode: str,
         metric_threshold: float = 0.001,
         perf_threshold: float = 0.25) -> List[Delta]:
    """Deltas that violate the gate for ``mode``.

    ``mode`` is ``all`` | ``metrics`` | ``perf`` | ``none``.  Metrics
    gate tight (they are deterministic — any drift is a model change);
    perf gates loose (wall clock is machine- and load-dependent).  For
    perf only *slowdowns* gate: wall_s up or requests_per_s down.
    """
    if mode == "none":
        return []
    violations: List[Delta] = []
    if mode in ("all", "metrics"):
        violations.extend(d for d in deltas["metrics"]
                          if d.exceeds(metric_threshold))
    if mode in ("all", "perf"):
        for d in deltas["perf"]:
            slower = (d.rel > 0 if d.key.endswith("wall_s")
                      else d.rel < 0)
            if slower and d.exceeds(perf_threshold):
                violations.append(d)
    return violations
