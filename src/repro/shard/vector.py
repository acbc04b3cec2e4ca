"""Numpy batch kernels for the FCFS/media timing hot loops.

The scalar paths (:meth:`repro.engine.queueing.Server.serve`,
:meth:`repro.media.xpoint.XPointMedia.access`) stay authoritative; the
kernels here compute the *identical* integer timings for a whole batch
at once and leave the server/counter state exactly as the equivalent
scalar loop would, enforced by the checksum cross-check in
``repro-shard crosscheck``.

The FCFS recurrence ``c_i = max(a_i, c_{i-1}) + s_i`` vectorizes as a
prefix scan: with ``P_i = cumsum(s)_i`` (inclusive) and ``d_i = a_i -
P_{i-1}``,

    ``c_i = P_i + max(busy0, max_{j<=i} d_j)``

which is two ``cumsum``/``maximum.accumulate`` passes in exact int64
(picosecond magnitudes keep every intermediate far below 2**63).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def _as_int64(values):
    return np.asarray(values, dtype=np.int64)


def fcfs_completions(arrivals, services, busy0: int = 0):
    """Vectorized FCFS completion times (see module docstring).

    Pure function — does not touch any server state.
    """
    a = _as_int64(arrivals)
    s = _as_int64(services)
    prefix = np.cumsum(s)
    started = a - prefix + s  # a_i - P_{i-1}
    np.maximum.accumulate(started, out=started)
    np.maximum(started, int(busy0), out=started)
    return prefix + started


def serve_batch(server, arrivals, services) -> np.ndarray:
    """Batched :meth:`Server.serve`: identical completions and state."""
    completions = fcfs_completions(arrivals, services, server.busy_until)
    n = len(completions)
    if n:
        server.busy_until = int(completions[-1])
        server.total_busy += int(np.sum(_as_int64(services)))
        server.served += n
    return completions


def banked_serve_batch(banked, banks, arrivals, services) -> np.ndarray:
    """Batched :meth:`BankedServer.serve` over mixed bank indices.

    Requests are scanned per bank in stream order (the order the scalar
    loop would serve them in — bank subsequences are exactly the
    per-bank arrival order) and completions scatter back into stream
    positions.
    """
    bank_idx = _as_int64(banks) % banked.nbanks
    a = _as_int64(arrivals)
    s = _as_int64(services)
    out = np.empty(len(a), dtype=np.int64)
    for bank in np.unique(bank_idx):
        where = np.nonzero(bank_idx == bank)[0]
        out[where] = serve_batch(banked.banks[int(bank)], a[where], s[where])
    return out


def media_access_batch(media, addrs, is_write, issues) -> np.ndarray:
    """Batched :meth:`XPointMedia.access` (uninstrumented media only).

    Computes the partition index and service time of every access,
    scans each partition server, and applies the same counter updates
    the scalar loop would.  Raises :class:`ValueError` when an observer
    is attached to the media's hooks — those paths branch per request
    and stay scalar.
    """
    if media.hooks.on:
        raise ValueError("media_access_batch requires uninstrumented media "
                         "(no observer attached); use the scalar path")
    cfg = media.config
    units = (_as_int64(addrs) % cfg.capacity_bytes) // cfg.granularity
    writes = np.asarray(is_write, dtype=bool)
    services = np.where(writes, np.int64(cfg.write_ps), np.int64(cfg.read_ps))
    completions = banked_serve_batch(media.banks, units % cfg.npartitions,
                                     issues, services)
    nwrites = int(np.count_nonzero(writes))
    nreads = len(units) - nwrites
    if nwrites:
        media._writes.add(nwrites)
        media._bytes_written.add(nwrites * cfg.granularity)
    if nreads:
        media._reads.add(nreads)
        media._bytes_read.add(nreads * cfg.granularity)
    return completions


def media_access_batch_scalar(media, addrs, is_write,
                              issues) -> List[int]:
    """The authoritative scalar loop ``media_access_batch`` must match."""
    access = media.access
    return [access(int(addr), bool(w), int(t))
            for addr, w, t in zip(addrs, is_write, issues)]


def batch_checksum(indices, completions) -> int:
    """Vectorized :func:`repro.shard.merge.completion_checksum` partial."""
    from repro.shard.merge import MASK64, MIX_INDEX, MIX_VALUE
    idx = np.asarray(indices, dtype=np.uint64) + np.uint64(1)
    comp = np.asarray(completions).astype(np.uint64)
    mixed = (idx * np.uint64(MIX_INDEX)) ^ (comp * np.uint64(MIX_VALUE))
    return int(np.sum(mixed, dtype=np.uint64)) & MASK64


def batch_timeline(completions, issues,
                   interval_ps: int) -> List[Tuple[int, int, int]]:
    """Bucketed ``(bucket, n_requests, busy_ps)`` rows for a batch.

    ``busy_ps`` sums ``completion - issue`` per completion bucket —
    the same accumulation the scalar per-request path performs.
    """
    comp = _as_int64(completions)
    lat = comp - _as_int64(issues)
    buckets = comp // np.int64(interval_ps)
    unique, inverse, counts = np.unique(buckets, return_inverse=True,
                                        return_counts=True)
    busy = np.bincount(inverse, weights=lat.astype(np.float64))
    return [(int(b), int(n), int(round(s)))
            for b, n, s in zip(unique, counts, busy)]
