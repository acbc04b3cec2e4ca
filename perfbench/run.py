"""Host-time benchmark of the paper's experiments at smoke scale.

Each workload is a closed loop of one client: it runs one experiment to
completion through ``run_experiment(id, Scale.SMOKE, seed)`` in a fresh
single-threaded interpreter (``perfbench/child.py``), then the next,
until ``--seconds`` have passed (at least three runs).  Every run's
rows, numeric metrics and request count are checked against
``perfbench/pins.json``.

Usage, from the checkout root::

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload fig7 --seed 2 --seconds 55 --trace 1
    python3 perfbench/run.py --write-pins        # re-pin after a deliberate
                                                 # change to simulated results
    python3 perfbench/run.py --workload fig1 --src OLD/src --compare metrics

``--trace 0`` reports the end-to-end metrics: ``wall_s`` as the midpoint
of the fastest and the median run (see ``perfbench/README.md`` for why),
the other metrics as medians over the runs;
``--trace 1`` alternates untraced and traced runs and reports the
per-layer breakdown of ``perfbench/layers.py``.  Human-readable lines
come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
WORKLOADS = ("fig1", "tables", "fig5", "fig7")

#: runs per invocation however short ``--seconds`` is
MIN_RUNS = 3
#: import-only interpreters started for set-up time before the runs
SETUP_PROBES = 5
#: hard cap on one invocation, kept under the 180 s contract
LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "requests_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ps"):
        return "ps"
    if name.endswith(("ratio", "coverage", "overhead")):
        return "ratio"
    return "count"


class ChildFailed(Exception):
    """A run that raised, timed out, or produced output off the pins."""


class Runner:
    """Starts child interpreters against one source tree."""

    def __init__(self, src: Path, started: float) -> None:
        self.started = started
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = "1"
        self.env = env

    def remaining(self) -> float:
        return LIMIT_S - (time.monotonic() - self.started)

    def child(self, *args: str) -> Tuple[Dict[str, Any], float]:
        """Run ``child.py args``; returns its JSON document and the
        seconds from spawn to experiment entry (set-up time)."""
        timeout = self.remaining()
        if timeout <= 1:
            raise ChildFailed("out of time before the run started")
        spawned = time.time()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), *args],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"run {args} timed out after {timeout:.0f}s")
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
            raise ChildFailed(f"run {args} exited {proc.returncode}:\n{tail}")
        lines = proc.stdout.strip().splitlines()
        try:
            doc = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise ChildFailed(f"run {args} printed no result")
        return doc, doc["entry"] - spawned


def first_difference(got: Any, want: Any, path: str = "") -> Optional[str]:
    """Where two JSON values first differ (``None`` if equal)."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            if key not in got or key not in want:
                return f"{path}.{key}: present on one side only"
            diff = first_difference(got[key], want[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: {len(got)} items, pinned {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = first_difference(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if got == want and type(got) is type(want) else \
        f"{path}: {got!r}, pinned {want!r}"


def check(doc: Dict[str, Any], pin: Dict[str, Any], compare: str) -> None:
    """Raise :class:`ChildFailed` unless the run reproduced the pins."""
    got, want = doc["outputs"], pin["results"]
    if compare == "metrics":
        got = [{"experiment": r["experiment"], "metrics": r["metrics"]}
               for r in got]
        want = [{"experiment": r["experiment"], "metrics": r["metrics"]}
                for r in want]
    diff = first_difference(got, want, "results")
    if diff is None and "trace" in doc:
        diff = first_difference(
            {"requests": doc["trace"]["metrics"]["requests"],
             "requests_by_target": doc["trace"]["requests_by_target"]},
            {"requests": pin["requests"],
             "requests_by_target": pin["requests_by_target"]})
    if diff is not None:
        raise ChildFailed(f"output differs from the pins at {diff}")


class Tally:
    """Attempted/failed runs of one invocation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, runner: Runner, pin: Dict[str, Any], compare: str,
            *args: str) -> Optional[Tuple[Dict[str, Any], float]]:
        """One checked run; ``None`` if it did not complete.  A run that
        completed off the pins still returns its timings."""
        self.attempted += 1
        try:
            doc, setup_s = runner.child(*args)
        except ChildFailed as exc:
            self.failed += 1
            print(f"run failed: {exc}", file=sys.stderr)
            return None
        try:
            check(doc, pin, compare)
        except ChildFailed as exc:
            self.failed += 1
            print(f"run failed: {exc}", file=sys.stderr)
        return doc, setup_s


def end_to_end(runner: Runner, tally: Tally, pin: Dict[str, Any],
               args: argparse.Namespace) -> Optional[Dict[str, float]]:
    deadline = runner.started + args.seconds
    setups: List[float] = []
    for _ in range(SETUP_PROBES):
        setups.append(runner.child("-", "0", "--setup-only")[1])
    walls: List[float] = []
    rss: List[float] = []
    spent: List[float] = []
    while True:
        t0 = time.monotonic()
        out = tally.run(runner, pin, args.compare, args.workload, str(args.seed))
        if out is None:
            break
        doc, setup_s = out
        spent.append(time.monotonic() - t0)
        walls.append(doc["wall_s"])
        setups.append(setup_s)
        rss.append(doc["rss_mb"])
        typical = statistics.median(spent)
        if len(walls) >= MIN_RUNS and time.monotonic() + typical > deadline:
            break
        if max(spent) > runner.remaining():
            break
    if not walls:
        return None
    # Neighbours on a shared host slow runs in episodes of seconds to
    # minutes: the fastest run is steadiest when most of a window is
    # undisturbed, the median when most of it is disturbed.
    wall = (min(walls) + statistics.median(walls)) / 2
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "requests_per_s": pin["requests"] / wall,
        "peak_rss_mb": statistics.median(rss),
    }


def per_layer(runner: Runner, tally: Tally, pin: Dict[str, Any],
              args: argparse.Namespace) -> Optional[Dict[str, float]]:
    walls: List[float] = []
    traces: List[Dict[str, float]] = []
    spent: List[float] = []
    deadline = runner.started + args.seconds
    while True:
        t0 = time.monotonic()
        plain = tally.run(runner, pin, args.compare, args.workload,
                          str(args.seed))
        traced = plain and tally.run(runner, pin, args.compare, args.workload,
                                     str(args.seed), "--trace")
        if not traced:
            break
        spent.append(time.monotonic() - t0)
        walls.append(plain[0]["wall_s"])
        metrics = dict(traced[0]["trace"]["metrics"])
        metrics["trace.overhead"] = traced[0]["wall_s"]
        traces.append(metrics)
        typical = statistics.median(spent)
        if time.monotonic() + typical > deadline or max(spent) > runner.remaining():
            break
    if not traces:
        return None
    out = {name: statistics.median_low(t[name] for t in traces)
           for name in traces[0]}
    out["trace.overhead"] /= statistics.median(walls)
    return out


def write_pins(runner: Runner) -> int:
    pins = {}
    for workload in WORKLOADS:
        doc, _ = runner.child(workload, "0", "--trace")
        pins[workload] = {
            "requests": doc["trace"]["metrics"]["requests"],
            "requests_by_target": doc["trace"]["requests_by_target"],
            "results": doc["outputs"],
        }
        print(f"{workload}: {pins[workload]['requests']} requests "
              f"{pins[workload]['requests_by_target']}")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS.relative_to(ROOT)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to import repro from")
    parser.add_argument("--compare", choices=("all", "metrics"), default="all",
                        help="'metrics' checks only result metrics (for "
                             "older commits whose rows may differ)")
    parser.add_argument("--write-pins", action="store_true",
                        help="re-pin every workload's outputs and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_pins:
        parser.error("--workload is required")
    started = time.monotonic()
    if not (args.src / "repro" / "__init__.py").is_file():
        print(f"no repro package under {args.src}", file=sys.stderr)
        return 2
    runner = Runner(args.src.resolve(), started)
    try:
        runner.child("-", "0", "--setup-only")  # compile and page in
        if args.write_pins:
            return write_pins(runner)
        pin = json.loads(PINS.read_text())[args.workload]
        tally = Tally()
        measure = per_layer if args.trace else end_to_end
        metrics = measure(runner, tally, pin, args)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if metrics is None:
        print("benchmark failed: no run completed", file=sys.stderr)
        return 1
    units = {name: (END_TO_END_UNITS[name] if not args.trace
                    else per_layer_unit(name)) for name in metrics}
    for name in sorted(metrics):
        print(f"{args.workload:6s} {name:32s} {metrics[name]:>16.6f} {units[name]}")
    print(f"{args.workload:6s} {'failed_runs':32s} "
          f"{tally.failed / tally.attempted:>16.6f} "
          f"({tally.failed} of {tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
