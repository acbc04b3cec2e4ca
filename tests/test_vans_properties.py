"""System-level invariants of VANS, checked with hypothesis.

These are the contracts every TargetSystem consumer (LENS, the CPU
model, the attach port) relies on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.units import MIB
from repro.vans import VansConfig, VansSystem

ADDRS = st.integers(0, (64 * MIB) // 64 - 1).map(lambda line: line * 64)
OPS = st.lists(st.tuples(ADDRS, st.sampled_from(["r", "w", "f"])),
               min_size=1, max_size=80)


@settings(max_examples=40, deadline=None)
@given(OPS)
def test_time_never_goes_backwards(ops):
    """Completions are >= issue times, and a serialized driver's clock
    is non-decreasing through any mix of reads, writes and fences."""
    system = VansSystem()
    now = 0
    for addr, op in ops:
        if op == "r":
            done = system.read(addr, now)
        elif op == "w":
            done = system.write(addr, now)
        else:
            done = system.fence(now)
        assert done >= now
        now = done


@settings(max_examples=30, deadline=None)
@given(OPS)
def test_fence_is_idempotent(ops):
    """A second fence immediately after a fence is free."""
    system = VansSystem()
    now = 0
    for addr, op in ops:
        now = system.write(addr, now) if op == "w" else system.read(addr, now)
    drained = system.fence(now)
    assert system.fence(drained) == drained


@settings(max_examples=30, deadline=None)
@given(st.lists(ADDRS, min_size=1, max_size=60))
def test_read_latency_bounded(addrs):
    """Every read lands within the physically possible window: at least
    the frontend+hit path, at most a full miss chain plus queueing."""
    system = VansSystem()
    t = system.config.dimm.timing
    floor = t.frontend_read_ps
    now = 0
    for addr in addrs:
        done = system.read(addr, now)
        latency = done - now
        assert latency >= floor
        assert latency < 5_000_000  # 5us: far above any legal miss chain
        now = done


@settings(max_examples=25, deadline=None)
@given(st.lists(ADDRS, min_size=4, max_size=50), st.integers(2, 6))
def test_interleaving_preserves_request_counts(addrs, ndimms):
    """Every request is serviced by exactly one DIMM, whatever the
    interleaving."""
    system = VansSystem(VansConfig().with_dimms(ndimms))
    now = 0
    for addr in addrs:
        now = system.read(addr, now)
    per_dimm = [d.stats for d in system.imc.dimms]
    total = system.instrument_snapshot()["dimm.reads"]
    assert total == len(addrs)


@settings(max_examples=25, deadline=None)
@given(st.lists(ADDRS, min_size=1, max_size=40))
def test_determinism(addrs):
    """Identical request streams produce identical timings."""
    def run():
        system = VansSystem()
        now = 0
        out = []
        for addr in addrs:
            now = system.read(addr, now)
            out.append(now)
        return out

    assert run() == run()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(ADDRS, st.booleans()), min_size=1, max_size=50))
def test_counters_match_traffic(ops):
    system = VansSystem()
    now = 0
    reads = writes = 0
    for addr, is_write in ops:
        if is_write:
            now = system.write(addr, now)
            writes += 1
        else:
            now = system.read(addr, now)
            reads += 1
    counters = system.instrument_snapshot()
    assert counters["imc.reads"] == reads
    assert counters["imc.writes"] == writes


@settings(max_examples=20, deadline=None)
@given(st.lists(ADDRS, min_size=1, max_size=30))
def test_warm_fill_never_slows_reads(addrs):
    """Warm state is strictly beneficial for the same access stream."""
    cold = VansSystem()
    now = 0
    for addr in addrs:
        now = cold.read(addr, now)
    cold_total = now

    warm = VansSystem()
    warm.warm_fill(0, 64 * MIB)
    now = 0
    for addr in addrs:
        now = warm.read(addr, now)
    assert now <= cold_total
