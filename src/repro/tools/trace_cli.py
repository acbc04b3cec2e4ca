"""Trace capture and replay from the command line.

Examples::

    # capture a pointer-chasing run into a trace file
    python -m repro.tools.trace_cli capture --pattern chase \
        --region 1048576 --ops 5000 out.trace

    # replay any trace against any target
    python -m repro.tools.trace_cli replay out.trace --target ramulator-pcm
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import registry
from repro.common.errors import UnknownTargetError
from repro.common.rng import make_rng
from repro.engine.request import CACHE_LINE, Op
from repro.flight import session as flight_session
from repro.tools.flight_opts import (add_flight_args, recorder_from_args,
                                     report_flight)
from repro.tools.targets import make_target
from repro.vans.tracing import TraceRecord, load_trace, replay, save_trace


def generate_pattern(pattern: str, region: int, ops: int, seed: int):
    rng = make_rng(seed, f"trace-{pattern}")
    lines = max(1, region // CACHE_LINE)
    if pattern == "chase":
        for _ in range(ops):
            yield TraceRecord(Op.READ, rng.randrange(lines) * CACHE_LINE)
    elif pattern == "seq-write":
        for i in range(ops):
            yield TraceRecord(Op.WRITE_NT, (i % lines) * CACHE_LINE)
        yield TraceRecord(Op.FENCE)
    elif pattern == "overwrite":
        for _ in range(ops):
            for line in range(0, 256, CACHE_LINE):
                yield TraceRecord(Op.WRITE_NT, line)
            yield TraceRecord(Op.FENCE)
    else:
        raise SystemExit(f"unknown pattern {pattern!r}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cap = sub.add_parser("capture", help="generate a trace file")
    cap.add_argument("output")
    cap.add_argument("--pattern", default="chase",
                     choices=["chase", "seq-write", "overwrite"])
    cap.add_argument("--region", type=int, default=1 << 20)
    cap.add_argument("--ops", type=int, default=5000)
    cap.add_argument("--seed", type=int, default=0)

    rep = sub.add_parser("replay", help="replay a trace against a target")
    rep.add_argument("input")
    rep.add_argument(
        "--target", default="vans",
        help="system to replay against "
             f"({', '.join(registry.target_names(systems_only=True))})")
    add_flight_args(rep)

    args = parser.parse_args(argv)
    if args.command == "capture":
        count = save_trace(
            generate_pattern(args.pattern, args.region, args.ops, args.seed),
            args.output)
        print(f"wrote {count} records to {args.output}")
        return 0

    recorder = recorder_from_args(args)
    try:
        with flight_session(recorder):
            target = make_target(args.target)()
            result = replay(load_trace(args.input), target)
    except UnknownTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"target: {target.name}")
    print(f"reads:  {result.reads.count:>8}  mean {result.read_mean_ns:.1f} ns")
    print(f"writes: {result.writes.count:>8}  mean {result.write_mean_ns:.1f} ns")
    print(f"fences: {result.fences}")
    print(f"simulated time: {result.end_ps / 1e9:.3f} ms")
    report_flight(recorder, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
