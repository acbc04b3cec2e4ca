"""``repro-bench``: run a suite, record its model outputs, gate drift.

Usage::

    repro-bench --suite smoke --out bench-smoke/ \\
        --baseline bench/smoke/BENCH_2026-10-18.json   # CI
    repro-bench --suite lens --out DIR    # diff vs latest BENCH_*.json in DIR
    repro-bench --check bench/lens/BENCH_2026-10-18.json   # validate

Each run writes ``BENCH_<date>.json`` (schema ``repro.bench/3``): per
experiment the simulated request count and the experiment's
model-output metrics, plus a run manifest (git SHA, config hash, seeds,
environment).  Every recorded value is deterministic.  Host time is not
recorded here: ``perfbench/`` measures it (see ``perfbench/README.md``).

The fresh run is diffed against ``--baseline`` or else the latest prior
``BENCH_*.json`` in the output directory.  Exit codes: ``0`` ok / no
baseline, ``2`` usage error or an unreadable or invalid baseline, ``3``
a metric or request count moved by more than 0.1%, ``4`` one or more
experiments crashed (the partial document is still written, with
``"completed": false``, so a long suite never loses its finished
measurements to one bad experiment).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from typing import List, Optional

from repro.experiments.common import Scale
from repro.telemetry.bench import (
    SUITES,
    diff_bench,
    find_baseline,
    gate,
    run_suite,
    suite_ids,
    validate_bench,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REGRESSION = 3
EXIT_PARTIAL = 4


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _append_summary(path: Optional[str], lines: List[str]) -> None:
    """Append markdown to ``path`` (``$GITHUB_STEP_SUMMARY`` in CI)."""
    if not path:
        return
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"warning: cannot write summary {path}: {exc}",
              file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--suite", default="smoke",
                        choices=sorted(SUITES),
                        help="suite to run (default: %(default)s)")
    parser.add_argument("--paper", action="store_true",
                        help="paper-scale sweeps (slow)")
    parser.add_argument("--seed", type=int, default=None,
                        help="base RNG seed (default: runner default)")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="directory for BENCH_<date>.json "
                             "(default: current directory)")
    parser.add_argument("--baseline", metavar="PATH",
                        help="diff against this document instead of the "
                             "latest BENCH_*.json in the output directory")
    parser.add_argument("--date", metavar="YYYY-MM-DD",
                        help="override the output filename date stamp")
    parser.add_argument("--summary", metavar="PATH",
                        help="append a markdown run summary to PATH "
                             "(pass \"$GITHUB_STEP_SUMMARY\" in CI)")
    parser.add_argument("--check", metavar="PATH",
                        help="validate an existing bench document and exit")
    parser.add_argument("--list", action="store_true", dest="list_suites",
                        help="list suites and their experiments, then exit")
    args = parser.parse_args(argv)

    if args.list_suites:
        for name in sorted(SUITES):
            print(f"{name}: {', '.join(suite_ids(name))}")
        return EXIT_OK

    if args.check:
        try:
            doc = _load(args.check)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {args.check}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        problems = validate_bench(doc)
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        if not problems:
            print(f"{args.check}: valid {doc.get('schema')} document "
                  f"({len(doc.get('experiments', {}))} experiments)")
        return EXIT_USAGE if problems else EXIT_OK

    scale = Scale.PAPER if args.paper else Scale.SMOKE
    print(f"repro-bench: suite={args.suite} scale={scale.value} "
          f"({', '.join(suite_ids(args.suite))})")
    doc = run_suite(args.suite, scale, seed=args.seed)
    problems = validate_bench(doc)
    if problems:  # defensive: a schema bug should fail loudly, not gate
        for problem in problems:
            print(f"internal error: {problem}", file=sys.stderr)
        return EXIT_USAGE

    date = args.date or datetime.date.today().isoformat()
    out_name = f"BENCH_{date}.json"
    out_path = os.path.join(args.out, out_name)
    os.makedirs(args.out, exist_ok=True)

    baseline_path = args.baseline or find_baseline(args.out,
                                                   exclude=out_name)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"wrote {out_path}: {len(doc['experiments'])} experiments")
    summary: List[str] = [
        f"### repro-bench: suite `{args.suite}` ({scale.value})",
        "",
        f"- {len(doc['experiments'])} experiments",
    ]

    if not doc["completed"]:
        failed = sorted(exp_id for exp_id, entry
                        in doc["experiments"].items() if "error" in entry)
        print(f"\nPARTIAL RUN: {len(failed)} experiment(s) crashed: "
              f"{', '.join(failed)}", file=sys.stderr)
        for exp_id in failed:
            last = str(doc["experiments"][exp_id]["error"]) \
                .strip().splitlines()[-1]
            print(f"  {exp_id}: {last}", file=sys.stderr)
        print("partial document written; skipping regression gate",
              file=sys.stderr)
        summary.append(f"- **PARTIAL RUN**: {len(failed)} experiment(s) "
                       f"crashed: {', '.join(failed)}")
        _append_summary(args.summary, summary)
        return EXIT_PARTIAL

    if baseline_path is None:
        print("no prior baseline found; nothing to diff")
        summary.append("- no prior baseline found; nothing to diff")
        _append_summary(args.summary, summary)
        return EXIT_OK

    try:
        baseline = _load(baseline_path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read baseline {baseline_path}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    stale = validate_bench(baseline)
    if stale:
        # a stale baseline must fail the run, never silently ungate it
        print(f"error: baseline {baseline_path} is invalid "
              f"({'; '.join(stale)})", file=sys.stderr)
        _append_summary(args.summary, summary)
        return EXIT_USAGE

    deltas = diff_bench(baseline, doc)
    print(f"\ndiff vs {baseline_path}: {len(deltas)} metric value(s) "
          f"changed")
    summary.append(f"- diff vs `{os.path.basename(baseline_path)}`: "
                   f"{len(deltas)} metric value(s) changed")
    for delta in deltas:
        print(f"  {delta.render()}")
        summary.append(f"  - `{delta.render()}`")

    violations = gate(deltas)
    if violations:
        print(f"\nREGRESSION: {len(violations)} value(s) beyond threshold",
              file=sys.stderr)
        for delta in violations:
            print(f"  {delta.render()}", file=sys.stderr)
        summary.append(f"\n**REGRESSION**: {len(violations)} value(s) "
                       f"beyond threshold")
        _append_summary(args.summary, summary)
        return EXIT_REGRESSION
    print("metric gate: ok")
    summary.append("- metric gate: ok ✓")
    _append_summary(args.summary, summary)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
