"""Deterministic per-DIMM sharding of a VANS run.

The iMC keeps one WPQ/RPQ/write-bus/DIMM stack per channel, and the
channels interact *only* at fences (``IntegratedMemoryController.fence``
is a max over per-channel drain times).  That makes the address space
shardable exactly: partition a fence-delimited open-loop request stream
with the interleave map, run each shard's DIMM+media stack
independently (in-process or in forked workers), and merge the
per-shard results at the fence synchronization points.  The merged
metrics, instrument-bus snapshots, and telemetry timelines are
bit-identical to the serial run by construction — the property the CI
``shard-identity`` job enforces.

Layout:

* :mod:`repro.shard.plan` — DIMM → shard assignment;
* :mod:`repro.shard.stream` — fence-delimited epoch compiler and the
  interleave-map partitioner;
* :mod:`repro.shard.vector` — numpy batch kernels for the FCFS/media
  timing math, with the scalar path staying authoritative;
* :mod:`repro.shard.merge` — canonical snapshot/timeline/checksum
  merge algebra (associative and order-independent);
* :mod:`repro.shard.executor` — serial, in-process-sharded, and
  forked-worker execution with the epoch barrier protocol.

Streams reach the plane through ``repro-shard``, the serve protocol's
``stream`` verb and :func:`repro.experiments.exec.run_stream` with
``issue="open"``; each names its shard count (one when omitted).
"""

from __future__ import annotations

from repro.common.errors import ConfigError


def validate_shards(shards: int) -> int:
    """Normalize and validate a shard count (``>= 1``)."""
    try:
        value = int(shards)
    except (TypeError, ValueError):
        raise ConfigError(f"shards must be an integer, got {shards!r}")
    if value < 1:
        raise ConfigError(f"shards must be >= 1, got {value}")
    return value
