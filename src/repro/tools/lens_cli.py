"""LENS from the command line.

Examples::

    python -m repro.tools.lens_cli vans            # full characterization
    python -m repro.tools.lens_cli pmep --buffers  # buffer probe only
    python -m repro.tools.lens_cli vans-6dimm --buffers
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import registry
from repro.common.errors import UnknownTargetError
from repro.common.units import pretty_size
from repro.flight import session as flight_session
from repro.lens.probers.buffer import BufferProber
from repro.lens.report import characterize
from repro.tools.flight_opts import (add_flight_args, recorder_from_args,
                                     report_flight)
from repro.tools.targets import make_target


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Reverse engineer a memory system with LENS.")
    parser.add_argument("target",
                        help="memory system to characterize "
                             f"({', '.join(registry.target_names(systems_only=True))})")
    parser.add_argument("--buffers", action="store_true",
                        help="run only the (fast) buffer prober")
    parser.add_argument("--overwrite-iterations", type=int, default=40000,
                        help="overwrite test length for the policy prober")
    add_flight_args(parser)
    args = parser.parse_args(argv)

    try:
        factory = make_target(args.target)
    except UnknownTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    recorder = recorder_from_args(args)
    if args.buffers:
        with flight_session(recorder):
            report = BufferProber(factory).run()
        caps = [pretty_size(c) for c in report.read_capacities]
        wcaps = [pretty_size(c) for c in report.write_capacities]
        print(f"target: {args.target}")
        print(f"read buffers:    {caps or 'none detected'}")
        print(f"write queues:    {wcaps or 'none detected'}")
        if caps:
            ents = [pretty_size(e) for e in report.read_entry_sizes]
            print(f"read entries:    {ents}")
            print(f"hierarchy:       {report.hierarchy}")
        else:
            print("entry sizes / hierarchy: n/a (no buffer structure)")
        report_flight(recorder, args)
        return 0

    interleaved = None
    if args.target == "vans":
        interleaved = registry.factory("vans-6dimm")
    with flight_session(recorder):
        chara = characterize(
            factory,
            interleaved_factory=interleaved,
            overwrite_iterations=args.overwrite_iterations,
        )
    print(chara.render())
    report_flight(recorder, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
