"""One benchmark run in a fresh interpreter.

Usage (from the checkout root, with the source tree on ``PYTHONPATH``)::

    python3 perfbench/child.py fig1 SEED            # untraced run
    python3 perfbench/child.py fig1 SEED --trace    # traced run
    python3 perfbench/child.py - 0 --setup-only     # import, then exit

Prints one JSON object as the last line of standard output:
``entry`` (``time.time()`` at experiment entry, so the parent can take
set-up time from its own spawn time), ``wall_s`` (host seconds of the
``run_experiment`` call), ``rss_mb`` (peak RSS of this process) and
``outputs`` (the pinned view of every result).  A traced run adds
``trace`` with its per-layer breakdown.

The untraced path imports only ``run_experiment`` and ``Scale``, whose
signatures have been stable since the experiment runner appeared, so it
also runs against the source tree of an older commit.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def plain(value):
    """A JSON copy of one result value (tuples become lists)."""
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def outputs_of(results) -> list:
    """Rows and numeric metrics of each result: what the pins fix."""
    return [{
        "experiment": r.experiment,
        "rows": plain(r.rows),
        "metrics": {k: plain(v) for k, v in sorted(r.metrics.items())
                    if isinstance(v, (int, float)) and not isinstance(v, bool)},
    } for r in results]


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    flags = set(argv[2:])
    from repro.experiments.runner import run_experiment
    from repro.experiments.common import Scale
    tracer = None
    if "--trace" in flags:
        from layers import Tracer
        tracer = Tracer()
    entry = time.time()
    doc = {"entry": entry}
    if "--setup-only" not in flags:
        if tracer is None:
            t0 = time.perf_counter()
            results = run_experiment(workload, Scale.SMOKE, seed)
            doc["wall_s"] = time.perf_counter() - t0
        else:
            results = tracer.run(run_experiment, workload, Scale.SMOKE, seed)
            doc["wall_s"] = tracer.wall_s
            doc["trace"] = tracer.report(results[0].instrumentation)
        doc["outputs"] = outputs_of(results)
    doc["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
