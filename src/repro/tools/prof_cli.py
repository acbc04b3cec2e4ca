"""``repro-prof``: host wall-clock profiling for the simulator itself.

Two subcommands:

* ``run <experiment>`` — run any registry experiment under the
  profiler and print a top-N self-time table (where the *host's* wall
  time went, per station callsite);
* ``diff a.json b.json`` — compare two profile documents and name the
  callsites that moved (turns a bench exit-3 perf regression into a
  diagnosis).

``run`` exports the deterministic ``repro.prof/1`` JSON plus
speedscope, collapsed-stack, and Chrome-trace renderings.  Exit codes:
0 ok, 2 usage, 3 ``diff --fail-on-movers`` found significant movers.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter_ns
from typing import Any, Dict, List, Optional

from repro.prof import (
    Profiler,
    diff_profiles,
    format_movers,
    profile_from_dict,
    to_chrome,
    to_collapsed,
    to_speedscope,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MOVERS = 3


def _top_table(doc: Dict[str, Any], top: int) -> str:
    """Top-N frames by self time, with share-of-total columns."""
    total = max(1, doc.get("total_self_ns") or 1)
    frames = sorted(doc.get("frames", {}).items(),
                    key=lambda kv: (-kv[1]["self_ns"], kv[0]))
    lines = [f"{'KEY':<44} {'CALLS':>10} {'SELF(ms)':>10} "
             f"{'CUM(ms)':>10} {'SELF%':>7}"]
    for key, frame in frames[:top]:
        lines.append(
            f"{key:<44} {frame['calls']:>10} "
            f"{frame['self_ns'] / 1e6:>10.2f} "
            f"{frame['cum_ns'] / 1e6:>10.2f} "
            f"{frame['self_ns'] / total:>7.1%}")
    if len(frames) > top:
        rest = sum(f["self_ns"] for _, f in frames[top:])
        lines.append(f"{'(other ' + str(len(frames) - top) + ' keys)':<44} "
                     f"{'':>10} {rest / 1e6:>10.2f} {'':>10} "
                     f"{rest / total:>7.1%}")
    return "\n".join(lines)


def _export(doc: Dict[str, Any], args: argparse.Namespace) -> None:
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"profile JSON -> {args.json}")
    if args.speedscope:
        with open(args.speedscope, "w") as fh:
            json.dump(to_speedscope(doc, name=doc["meta"].get(
                "workload", "repro-prof")), fh, indent=2)
        print(f"speedscope -> {args.speedscope}")
    if args.collapsed:
        with open(args.collapsed, "w") as fh:
            fh.write(to_collapsed(doc))
        print(f"collapsed stacks -> {args.collapsed}")
    if args.chrome:
        with open(args.chrome, "w") as fh:
            json.dump(to_chrome(doc), fh, indent=2)
        print(f"chrome trace -> {args.chrome}")


def _report(doc: Dict[str, Any], wall_ns: int, top: int, root: str) -> None:
    """Print the top table and the coverage line.

    The ``root`` frame spans the whole run, so its self time is the
    time no station claimed; coverage counts only the self time outside
    it.
    """
    root_ns = doc["frames"].get(root, {}).get("self_ns", 0)
    attributed = doc["total_self_ns"] - root_ns
    coverage = (attributed / wall_ns) if wall_ns else 0.0
    print(_top_table(doc, top))
    print(f"\nwall {wall_ns / 1e6:.2f}ms, attributed self time "
          f"{attributed / 1e6:.2f}ms ({coverage:.1%} coverage; the root "
          f"frame {root} keeps {root_ns / 1e6:.2f}ms)")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.common import Scale
    from repro.experiments.exec import REGISTRY, run_experiment

    if args.experiment not in REGISTRY:
        print(f"error: unknown experiment {args.experiment!r}; known: "
              f"{', '.join(sorted(REGISTRY))}", file=sys.stderr)
        return EXIT_USAGE
    scale = Scale(args.scale)
    prof = Profiler()
    root = f"experiment.{args.experiment}"
    start = perf_counter_ns()
    with prof.frame(root):
        run_experiment(args.experiment, scale, args.seed, prof=prof)
    wall_ns = perf_counter_ns() - start
    doc = prof.to_dict(wall_ns=wall_ns, meta={
        "workload": root, "scale": scale.value, "seed": args.seed})
    _report(doc, wall_ns, args.top, root)
    _export(doc, args)
    return EXIT_OK


def _load_profile(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        return profile_from_dict(json.load(fh))


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        base = _load_profile(args.baseline)
        cand = _load_profile(args.candidate)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    movers = diff_profiles(base, cand,
                           min_share_pts=args.min_share_pts,
                           min_ratio=args.min_ratio,
                           min_self_ms=args.min_self_ms)
    print(format_movers(movers), end="")
    if movers and args.fail_on_movers:
        return EXIT_MOVERS
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-prof",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_exports(p: argparse.ArgumentParser) -> None:
        p.add_argument("--top", type=int, default=20, metavar="N",
                       help="rows in the self-time table")
        p.add_argument("--json", metavar="PATH",
                       help="write the repro.prof/1 profile document")
        p.add_argument("--speedscope", metavar="PATH",
                       help="write a speedscope flamegraph file")
        p.add_argument("--collapsed", metavar="PATH",
                       help="write collapsed stacks (flamegraph.pl)")
        p.add_argument("--chrome", metavar="PATH",
                       help="write a Chrome trace-event file")

    p_run = sub.add_parser("run", help="profile a registry experiment")
    p_run.add_argument("experiment")
    p_run.add_argument("--scale", default="smoke",
                       choices=("smoke", "paper"))
    p_run.add_argument("--seed", type=int, default=42)
    add_exports(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_diff = sub.add_parser(
        "diff", help="attribute a regression to moved callsites")
    p_diff.add_argument("baseline")
    p_diff.add_argument("candidate")
    p_diff.add_argument("--min-share-pts", type=float, default=5.0,
                        help="share-of-total move floor (pct points)")
    p_diff.add_argument("--min-ratio", type=float, default=1.5,
                        help="self-time ratio floor")
    p_diff.add_argument("--min-self-ms", type=float, default=1.0,
                        help="absolute self-time move floor (ms)")
    p_diff.add_argument("--fail-on-movers", action="store_true",
                        help="exit 3 when any mover is reported")
    p_diff.set_defaults(fn=_cmd_diff)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
