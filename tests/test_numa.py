"""Two-socket NUMA wrapper."""

import pytest

from repro.common.units import GIB, KIB, MIB
from repro.vans import VansSystem
from repro.vans.numa import NumaSystem


@pytest.fixture
def numa():
    return NumaSystem(VansSystem(), VansSystem(), node_bytes=1 * GIB)


def test_local_access_unchanged(numa):
    plain = VansSystem().read(0, 0)
    assert numa.read(0, 0) == plain


def test_remote_read_pays_hops(numa):
    local = numa.read(0, 0)
    remote = NumaSystem(VansSystem(), VansSystem(),
                        node_bytes=1 * GIB).read(2 * GIB, 0)
    assert remote > local + numa.hop_latency_ps


def test_routing_counters(numa):
    numa.read(0, 0)
    numa.read(2 * GIB, 0)
    numa.read(2 * GIB + 64, 10**7)
    assert numa.remote_fraction == pytest.approx(2 / 3)


def test_remote_addresses_rebased(numa):
    """Remote accesses land at node-local offsets on the remote system."""
    numa.read(1 * GIB, 0)  # first byte of node 1
    assert numa.remote.instrument_snapshot()["dimm.reads"] == 1


def test_link_serializes_remote_traffic():
    numa = NumaSystem(VansSystem(), VansSystem(), node_bytes=1 * GIB,
                      link_line_ps=50_000)
    base = 2 * GIB
    # two back-to-back remote reads to different pages contend on the link
    a = numa.read(base, 0)
    numa2 = NumaSystem(VansSystem(), VansSystem(), node_bytes=1 * GIB,
                       link_line_ps=50_000)
    numa2.read(base, 0)
    b = numa2.read(base + 8 * KIB, 0)
    assert b > a  # second issue at the same instant queues on the link


def test_remote_write_slower_than_local(numa):
    local = numa.write(0, 0)
    remote = NumaSystem(VansSystem(), VansSystem(),
                        node_bytes=1 * GIB).write(2 * GIB, 0)
    assert remote > local


def test_fence_covers_both_nodes(numa):
    now = numa.write(2 * GIB, 0)
    done = numa.fence(now)
    assert done >= now + numa.hop_latency_ps


def test_warm_fill_splits_by_node(numa):
    numa.warm_fill(1 * GIB - 32 * KIB, 64 * KIB)
    assert len(numa.local.dimm._rmw_tags) > 0
    assert len(numa.remote.dimm._ait_tags) > 0
