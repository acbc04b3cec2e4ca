"""Flight-record a workload against any registry target.

The dedicated front end for the per-request flight recorder: drive a
synthetic pattern (or a captured trace file) at a target, then print the
per-stage latency breakdown and optionally export a Chrome/Perfetto
``trace.json`` for ``ui.perfetto.dev``.

Examples::

    # where does a pointer-chase read's time go at 16MB reach?
    python -m repro.tools.flight_cli vans --pattern chase \
        --region 16777216 --ops 2000

    # record a captured trace and open the result in Perfetto
    python -m repro.tools.flight_cli vans --trace run.trace --out trace.json

    # reservoir-sample a long run down to 1000 kept records
    python -m repro.tools.flight_cli vans-6dimm --ops 200000 --reservoir 1000
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import registry
from repro.common.errors import ReproError
from repro.flight import FlightRecorder, breakdowns, save_chrome_trace, session
from repro.telemetry import (TelemetrySampler, render_timeline,
                             save_chrome_counters, save_timelines_csv)
from repro.telemetry import session as telemetry_session
from repro.tools.targets import make_target
from repro.tools.telemetry_opts import (add_telemetry_args,
                                        telemetry_spec_from_args)
from repro.tools.trace_cli import generate_pattern
from repro.vans.tracing import load_trace, replay


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Record per-request flight spans for a workload and "
                    "report where the latency goes.")
    parser.add_argument("target",
                        help="system to drive "
                             f"({', '.join(registry.target_names(systems_only=True))})")
    parser.add_argument("--trace", metavar="FILE",
                        help="replay a captured trace file instead of a "
                             "synthetic pattern")
    parser.add_argument("--pattern", default="chase",
                        choices=["chase", "seq-write", "overwrite"],
                        help="synthetic workload (default: chase)")
    parser.add_argument("--region", type=int, default=1 << 20,
                        help="working-set bytes for synthetic patterns")
    parser.add_argument("--ops", type=int, default=5000,
                        help="operation count for synthetic patterns")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample", type=int, default=0, metavar="N",
                        help="keep 1 in N requests (default: all)")
    parser.add_argument("--reservoir", type=int, default=0, metavar="K",
                        help="keep a uniform reservoir of K requests")
    parser.add_argument("--out", metavar="PATH",
                        help="write the Chrome/Perfetto trace.json here")
    add_telemetry_args(parser)
    args = parser.parse_args(argv)

    if args.sample and args.reservoir:
        print("error: --sample and --reservoir are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.reservoir:
        recorder = FlightRecorder(mode="reservoir", capacity=args.reservoir,
                                  seed=args.seed)
    elif args.sample > 1:
        recorder = FlightRecorder(mode="every", every=args.sample)
    else:
        recorder = FlightRecorder(mode="all")

    telemetry_spec = telemetry_spec_from_args(args)
    sampler = (TelemetrySampler(**telemetry_spec)
               if telemetry_spec is not None else None)
    try:
        with session(recorder), telemetry_session(sampler):
            target = make_target(args.target)()
            if args.trace:
                workload = load_trace(args.trace)
            else:
                workload = generate_pattern(args.pattern, args.region,
                                            args.ops, args.seed)
            result = replay(workload, target)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    summary = recorder.sampling_summary()
    print(f"target: {target.name}  simulated {result.end_ps / 1e9:.3f} ms")
    print(f"flight: {summary['kept']}/{summary['seen']} requests recorded "
          f"(mode={summary['mode']})")
    print()
    for _op, breakdown in breakdowns(recorder.records).items():
        print(breakdown.render())
        print()
    if args.out:
        events = save_chrome_trace(recorder.records, args.out,
                                   extra_metadata={"sampling": summary,
                                                   "target": target.name})
        print(f"[exported {events} trace events to {args.out}; open in "
              "ui.perfetto.dev]")
    if sampler is not None:
        print(render_timeline(sampler.timeline))
        timelines = {target.name: sampler.timeline}
        if args.telemetry_csv:
            rows = save_timelines_csv(timelines, args.telemetry_csv)
            print(f"[exported {rows} telemetry rows to {args.telemetry_csv}]")
        if args.telemetry_trace:
            counters = save_chrome_counters(timelines, args.telemetry_trace)
            print(f"[exported {counters} counter events to "
                  f"{args.telemetry_trace}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
