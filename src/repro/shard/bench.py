"""Kernel-suite cases for the sharded + vectorized execution path.

The legacy side — the one-shard scalar path — and the optimized side —
the sharded, numpy-vectorized path — execute the identical
deterministic workload back-to-back, their merged documents must agree
byte-for-byte (a mismatch raises, it is never a perf number), and
``repro-bench --suite kernel`` gates ``speedup >= 1`` relative to the
same run, keeping the gate machine-independent.

Cases run the shards in-process: on a single-CPU runner forked workers
cannot win, so the gated speedup comes from the structural change (the
prefix-scan media kernels), and fork parallelism rides on top on
multi-core machines without being load-bearing for CI.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Mapping, Optional

from repro.shard.executor import (
    execute_inprocess,
    identity_view,
    merge_payloads,
    prepare,
)
from repro.shard.stream import synthetic_stream

#: requests per case at smoke scale (paper scale multiplies)
SMOKE_REQUESTS = 49152
PAPER_MULTIPLIER = 8

#: best-of repeats per side
REPEATS = 3

#: case -> workload + target shape.  ``ddrt_burst``: bursts of
#: near-simultaneous requests striped across the interleave granules.
CASES: Dict[str, Dict[str, object]] = {
    "ddrt_burst": {
        "kind": "burst",
        "write_ratio": 0.7,
        "fence_every": 8192,
        "shards": 2,
        "overrides": {"ndimms": 4, "interleaved": True,
                      "collect_latency_histograms": False},
    },
    "media_randmix": {
        "kind": "rand",
        "write_ratio": 0.5,
        "fence_every": 8192,
        "shards": 2,
        "overrides": {"ndimms": 2, "interleaved": True,
                      "collect_latency_histograms": False},
    },
}


def _time_side(prepared) -> tuple:
    """Best-of-``REPEATS`` wall seconds plus the (repeat-stable) doc."""
    best_wall = None
    doc = None
    view = None
    for _ in range(REPEATS):
        prepared.reset()
        start = time.perf_counter()
        sim_end, payloads = execute_inprocess(prepared)
        wall = time.perf_counter() - start
        merged = merge_payloads(prepared, sim_end, payloads, fork=False)
        rendered = json.dumps(identity_view(merged), sort_keys=True)
        if view is None:
            view = rendered
            doc = merged
        elif rendered != view:
            raise RuntimeError(
                f"shard bench nondeterminism: {prepared.engine} engine "
                f"produced different documents across repeats")
        if best_wall is None or wall < best_wall:
            best_wall = wall
    return best_wall, doc, view


def run_shard_bench(nrequests: int = SMOKE_REQUESTS, seed: int = 0,
                    shards: Optional[int] = None,
                    cases: Optional[Mapping[str, Mapping[str, object]]] = None
                    ) -> Dict[str, Dict[str, object]]:
    """Run every case; returns per-case numbers for both sides (wall
    seconds, requests/s, ``speedup``, the checksum and the shard plan).

    ``shards`` overrides each case's shard count (the ``repro-bench
    --shards`` knob).  Raises when the sharded+vectorized document
    diverges from the serial scalar document — bit-identity is a
    correctness invariant here, not a metric.
    """
    out: Dict[str, Dict[str, object]] = {}
    for name, spec in (cases or CASES).items():
        ops = synthetic_stream(
            str(spec["kind"]), nrequests,
            fence_every=int(spec["fence_every"]),
            write_ratio=float(spec["write_ratio"]), seed=seed)
        overrides = dict(spec["overrides"])
        nshards = int(shards if shards is not None else spec["shards"])
        legacy = prepare("vans", ops, shards=1, overrides=overrides,
                         level="media", engine="scalar")
        optimized = prepare("vans", ops, shards=nshards,
                            overrides=overrides, level="media",
                            engine="auto")
        legacy_wall, legacy_doc, legacy_view = _time_side(legacy)
        optimized_wall, optimized_doc, optimized_view = _time_side(optimized)
        if optimized_view != legacy_view:
            raise RuntimeError(
                f"shard bench identity violation in case {name!r}: "
                f"sharded {optimized.engine} document differs from the "
                f"serial scalar document (checksums "
                f"{optimized_doc['checksum']} vs {legacy_doc['checksum']})")
        checksum32 = int(legacy_doc["checksum"], 16) & 0xFFFFFFFF
        out[name] = {
            "events": nrequests,
            "order_checksum": checksum32,
            "optimized_wall_s": optimized_wall,
            "optimized_events_per_s": nrequests / optimized_wall
            if optimized_wall > 0 else 0.0,
            "legacy_wall_s": legacy_wall,
            "legacy_events_per_s": nrequests / legacy_wall
            if legacy_wall > 0 else 0.0,
            "speedup": (legacy_wall / optimized_wall)
            if optimized_wall > 0 else 0.0,
            "kernel_stats": {
                "engine": optimized.engine,
                "plan": optimized.plan.as_dict(),
                "epochs": len(optimized.epochs),
                "sim_end_ps": optimized_doc["sim_end_ps"],
            },
        }
    return out
