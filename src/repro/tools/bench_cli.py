"""``repro-bench``: run a benchmark suite, record it, gate regressions.

Usage::

    repro-bench --suite smoke                       # run + write + diff
    repro-bench --suite smoke --out bench/          # choose output dir
    repro-bench --suite smoke --baseline BENCH_2026-08-05.json
    repro-bench --suite smoke --gate metrics        # CI: metrics only
    repro-bench --check BENCH_2026-08-05.json       # validate a document

Each run writes ``BENCH_<date>.json`` (schema ``repro.bench/2``): per
experiment wall seconds, simulated requests, requests/sec, and the
experiment's model-output metrics; plus run totals (peak RSS included)
and a full run manifest (git SHA, config hash, seeds, environment).
Kernel-suite entries (the shard plane's ``shard.*`` cases) additionally
carry the one-shard scalar path's numbers, the same-run ``speedup`` and
the shard plan under ``kernel_stats`` (never gated — context for
diagnosing a perf exit 3).

The fresh run is diffed against the latest prior ``BENCH_*.json`` in the
output directory (or ``--baseline``).  Exit codes: ``0`` ok / no
baseline, ``2`` usage error, ``3`` the gate found regressions beyond
threshold, ``4`` one or more experiments crashed (the partial document
is still written, with ``"completed": false``, so a long suite never
loses its finished measurements to one bad experiment).
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
    kernel_gate,
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
    parser.add_argument("--gate", default="all",
                        choices=["all", "metrics", "perf", "none"],
                        help="which delta family fails the run "
                             "(default: %(default)s; CI should use "
                             "'metrics' — perf is machine-dependent)")
    parser.add_argument("--metric-threshold", type=float, default=0.001,
                        metavar="REL",
                        help="relative metric drift tolerated "
                             "(default: %(default)s)")
    parser.add_argument("--perf-threshold", type=float, default=0.25,
                        metavar="REL",
                        help="relative slowdown tolerated "
                             "(default: %(default)s)")
    parser.add_argument("--date", metavar="YYYY-MM-DD",
                        help="override the output filename date stamp")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="shard count for the kernel suite's shard.* "
                             "cases (default: each case's own setting)")
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
    config = {"shards": args.shards} if args.shards is not None else None
    doc = run_suite(args.suite, scale, seed=args.seed, config=config)
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

    totals = doc["totals"]
    print(f"wrote {out_path}: {len(doc['experiments'])} experiments, "
          f"{totals['requests']} requests in {totals['wall_s']:.1f}s "
          f"({totals['requests_per_s']:.0f} req/s, "
          f"peak RSS {totals['peak_rss_kb']} KiB)")

    summary: List[str] = [
        f"### repro-bench: suite `{args.suite}` ({scale.value})",
        "",
        f"- {len(doc['experiments'])} experiments, "
        f"{totals['requests']} requests in {totals['wall_s']:.1f}s "
        f"({totals['requests_per_s']:.0f} req/s, peak RSS "
        f"{totals['peak_rss_kb']} KiB)",
    ]

    if not doc.get("completed", True):
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

    if args.suite == "kernel":
        # Same-runner relative gate: both paths were timed back to back
        # in this very run, so "sharded must not be slower than the
        # one-shard scalar path" holds on any machine at any load.
        summary += ["", "| case | sharded req/s | scalar req/s | speedup |",
                    "|---|---:|---:|---:|"]
        for exp_id in sorted(doc["experiments"]):
            entry = doc["experiments"][exp_id]
            if "speedup" in entry:
                print(f"  {exp_id}: {entry['requests_per_s']:.0f} req/s "
                      f"sharded vs {entry['legacy_events_per_s']:.0f} "
                      f"req/s one-shard scalar ({entry['speedup']:.2f}x)")
                summary.append(
                    f"| {exp_id} | {entry['requests_per_s']:.0f} "
                    f"| {entry['legacy_events_per_s']:.0f} "
                    f"| {entry['speedup']:.2f}x |")
        if args.gate != "none":
            slower = kernel_gate(doc)
            if slower:
                print(f"\nREGRESSION: sharded path slower than the "
                      f"one-shard scalar path in {len(slower)} case(s)",
                      file=sys.stderr)
                for line in slower:
                    print(f"  {line}", file=sys.stderr)
                summary.append(f"\n**REGRESSION**: sharded path slower "
                               f"than one-shard scalar in {len(slower)} "
                               f"case(s)")
                _append_summary(args.summary, summary)
                return EXIT_REGRESSION
            print("kernel gate: sharded >= one-shard scalar in every case")
            summary.append("\nkernel gate: sharded >= one-shard scalar in "
                           "every case ✓")

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
        print(f"warning: baseline {baseline_path} is invalid "
              f"({'; '.join(stale)}); skipping diff", file=sys.stderr)
        _append_summary(args.summary, summary)
        return EXIT_OK

    deltas = diff_bench(baseline, doc)
    changed = deltas["metrics"] + deltas["perf"]
    print(f"\ndiff vs {baseline_path}: "
          f"{len(deltas['metrics'])} metric / "
          f"{len(deltas['perf'])} perf value(s) changed")
    summary.append(f"- diff vs `{os.path.basename(baseline_path)}`: "
                   f"{len(deltas['metrics'])} metric / "
                   f"{len(deltas['perf'])} perf value(s) changed")
    for delta in changed:
        print(f"  {delta.render()}")
        summary.append(f"  - `{delta.render()}`")

    violations = gate(deltas, args.gate,
                      metric_threshold=args.metric_threshold,
                      perf_threshold=args.perf_threshold)
    if violations:
        print(f"\nREGRESSION: {len(violations)} value(s) beyond threshold "
              f"(gate={args.gate})", file=sys.stderr)
        for delta in violations:
            print(f"  {delta.render()}", file=sys.stderr)
        summary.append(f"\n**REGRESSION**: {len(violations)} value(s) "
                       f"beyond threshold (gate={args.gate})")
        _append_summary(args.summary, summary)
        return EXIT_REGRESSION
    print(f"gate={args.gate}: ok")
    summary.append(f"- gate={args.gate}: ok ✓")
    _append_summary(args.summary, summary)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
