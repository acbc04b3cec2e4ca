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
  forked-worker execution with the epoch barrier protocol;
* :mod:`repro.shard.bench` — the ``shard.*`` cases that
  ``repro-bench --suite kernel`` times and gates.

The session default below is how ``--shards N`` travels from the CLIs
into :func:`repro.experiments.exec.run_stream` without touching every
intermediate signature (the same pattern the flight/telemetry/fault
sessions use).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.common.errors import ConfigError

_DEFAULT_SHARDS = 1


def validate_shards(shards: int) -> int:
    """Normalize and validate a shard count (``>= 1``)."""
    try:
        value = int(shards)
    except (TypeError, ValueError):
        raise ConfigError(f"shards must be an integer, got {shards!r}")
    if value < 1:
        raise ConfigError(f"shards must be >= 1, got {value}")
    return value


def default_shards() -> int:
    """The session-wide shard count (1 unless a session is active)."""
    return _DEFAULT_SHARDS


@contextmanager
def shard_session(shards: int):
    """Scope a session-wide default shard count (``--shards N``).

    Forked worker processes inherit the default through the fork, so a
    campaign parent sets it once for the whole fan-out.
    """
    global _DEFAULT_SHARDS
    value = validate_shards(shards)
    prev = _DEFAULT_SHARDS
    _DEFAULT_SHARDS = value
    try:
        yield
    finally:
        _DEFAULT_SHARDS = prev
