"""Numpy batch kernels vs their authoritative scalar loops.

The vectorized FCFS prefix scan and the batched media path must be
*invisible*: identical completion times, identical server/counter
state, identical checksums — on arbitrary arrival/service patterns,
hypothesis-style.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

from repro.engine.queueing import BankedServer, Server
from repro.media.xpoint import XPointConfig, XPointMedia
from repro.shard.merge import completion_checksum
from repro.shard.vector import (
    banked_serve_batch,
    batch_checksum,
    batch_timeline,
    fcfs_completions,
    media_access_batch,
    media_access_batch_scalar,
    serve_batch,
)

jobs = st.lists(st.tuples(st.integers(min_value=0, max_value=10_000),
                          st.integers(min_value=0, max_value=500)),
                max_size=60)


def _sorted_arrivals(pairs):
    """FCFS servers assume non-decreasing arrivals within a stream."""
    arrivals = sorted(a for a, _ in pairs)
    services = [s for _, s in pairs]
    return arrivals, services


@settings(max_examples=200, deadline=None)
@given(jobs, st.integers(min_value=0, max_value=5_000))
def test_fcfs_scan_matches_scalar_server(pairs, busy0):
    arrivals, services = _sorted_arrivals(pairs)
    scalar = Server()
    scalar.busy_until = busy0
    expected = scalar.serve_batch(arrivals, services)

    vec = Server()
    vec.busy_until = busy0
    got = serve_batch(vec, arrivals, services)
    assert list(got) == expected
    assert (vec.busy_until, vec.total_busy, vec.served) \
        == (scalar.busy_until, scalar.total_busy, scalar.served)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=7),
                          st.integers(min_value=0, max_value=10_000),
                          st.integers(min_value=1, max_value=500)),
                max_size=60))
def test_banked_scan_matches_scalar(rows):
    rows.sort(key=lambda row: row[1])  # stream order = arrival order
    banks = [b for b, _, _ in rows]
    arrivals = [a for _, a, _ in rows]
    services = [s for _, _, s in rows]

    scalar = BankedServer(4)
    expected = scalar.serve_batch(banks, arrivals, services)

    vec = BankedServer(4)
    got = banked_serve_batch(vec, banks, arrivals, services)
    assert list(got) == expected
    for sb, vb in zip(scalar.banks, vec.banks):
        assert (sb.busy_until, sb.total_busy, sb.served) \
            == (vb.busy_until, vb.total_busy, vb.served)


def _media():
    return XPointMedia(XPointConfig(capacity_bytes=1 << 20))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=(1 << 21)),
                          st.booleans()),
                max_size=50),
       st.integers(min_value=0, max_value=1_000_000))
def test_media_batch_matches_scalar(accesses, start):
    addrs = [a for a, _ in accesses]
    writes = [w for _, w in accesses]
    issues = [start + 100 * i for i in range(len(accesses))]

    ref = _media()
    expected = media_access_batch_scalar(ref, addrs, writes, issues)

    med = _media()
    got = media_access_batch(med, addrs, writes, issues)
    assert list(got) == expected
    assert med.stats.snapshot() == ref.stats.snapshot()
    for rb, vb in zip(ref.banks.banks, med.banks.banks):
        assert (rb.busy_until, rb.total_busy, rb.served) \
            == (vb.busy_until, vb.total_busy, vb.served)


def test_media_access_batch_entry_point():
    """The executor's call shape: int64/bool arrays in, int64 out."""
    addrs, writes = [0, 256, 512, 300_000], [True, False, True, False]
    issues = [0, 0, 50, 90]
    expected = media_access_batch_scalar(_media(), addrs, writes, issues)
    got = media_access_batch(_media(), np.asarray(addrs, dtype=np.int64),
                             np.asarray(writes, dtype=bool),
                             np.asarray(issues, dtype=np.int64))
    assert got.dtype == np.int64
    assert list(got) == expected


def test_instrumented_media_refuses_vector_path():
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    injector = FaultInjector(FaultPlan(specs=(), seed=1))
    media = XPointMedia(XPointConfig(capacity_bytes=1 << 20))
    media.hooks.set(faults=injector)
    with pytest.raises(ValueError, match="uninstrumented"):
        media_access_batch(media, [0], [True], [0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=10 ** 9),
                          st.integers(min_value=0, max_value=10 ** 6)),
                max_size=50))
def test_batch_checksum_matches_merge_algebra(pairs):
    indices = [i for i, _ in pairs]
    completions = [c for _, c in pairs]
    assert batch_checksum(indices, completions) \
        == completion_checksum(zip(indices, completions))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 8), max_size=50))
def test_batch_timeline_matches_scalar_buckets(completions):
    issues = [max(0, c - 37) for c in completions]
    interval = 1_000_000
    rows = {}
    for done, start in zip(completions, issues):
        bucket = done // interval
        n, busy = rows.get(bucket, (0, 0))
        rows[bucket] = (n + 1, busy + done - start)
    expected = [(b, n, busy) for b, (n, busy) in sorted(rows.items())]
    assert batch_timeline(completions, issues, interval) == expected


def test_fcfs_completions_is_pure():
    server_free = fcfs_completions([0, 0, 10], [5, 5, 5], busy0=0)
    assert list(server_free) == [5, 10, 15]
    busy = fcfs_completions([0, 0, 10], [5, 5, 5], busy0=100)
    assert list(busy) == [105, 110, 115]
