"""Golden digests of the CPU cache/TLB/core model.

Two seeded runs must hash to the digests recorded from the reference
implementation, so a rewrite of the per-access paths cannot change a
single hit, victim, cycle or counter:

* a 50k-op stream straight through ``CacheHierarchy`` + ``TlbHierarchy``
  (hot set, a strided sweep larger than the 32 MiB L3, random writes,
  so dirty victims travel L1 -> L2 -> L3 -> memory and the STLB walks);
* one ``FullSystem`` run of ``spec_trace("mcf", 9000)`` on
  ``ramulator-ddr4``, floats hashed through ``repr``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import registry
from repro.common.rng import make_rng
from repro.common.units import KIB, MIB
from repro.cpu import FullSystem
from repro.cpu.cache import CacheHierarchy
from repro.cpu.tlb import TlbHierarchy
from repro.engine.stats import StatsRegistry
from repro.workloads.spec import spec_trace

N_OPS = 50_000
HOT_BYTES = 48 * KIB
SWEEP_BYTES = 48 * MIB
SWEEP_STRIDE = 4 * KIB
WRITE_BYTES = 8 * MIB
#: one L3 set spans the address space every 2 MiB (32768 sets x 64 B)
L3_SET_PERIOD = 2 * MIB
EPOCH_OPS = 2500

#: digests recorded from the reference implementation
HIERARCHY_GOLDEN = (
    "96864550eb2ed2a29198d3acd4bc7873498efc4c188117c95e646c9b8e468df5")
CORE_GOLDEN = (
    "1eb4172287cc3630e90ad765a363b91e65cb1f486f3ef2bae360222fd419c76c")


def _hierarchy_run():
    """Cache/TLB results of the seeded stream, plus the stats registry.

    Besides the hot set, sweep and random writes, one line per epoch is
    kept hot in L1 while a conflict stream on its L2/L3 sets evicts it
    from the levels below, so the non-inclusive victim paths run too:
    an L1 victim that only L3 holds, or that no lower level holds.
    """
    stats = StatsRegistry()
    caches = CacheHierarchy(stats=stats)
    tlbs = TlbHierarchy(stats=stats)
    rng = make_rng(16, "cpu-golden")
    results = []
    sweep = 0
    for i in range(N_OPS):
        kind = rng.random()
        if kind < 0.3:                      # hot set
            addr, is_write = rng.randrange(HOT_BYTES), rng.random() < 0.3
        elif kind < 0.4:                    # this epoch's L1-resident line
            addr = (3 << 30) + i // EPOCH_OPS * L3_SET_PERIOD + 64
            addr += rng.choice((0, 64 * KIB))
            is_write = rng.random() < 0.5
        elif kind < 0.7:                    # strided sweep past the L3
            addr, is_write = (1 << 30) + sweep, rng.random() < 0.1
            sweep = (sweep + SWEEP_STRIDE) % SWEEP_BYTES
        elif kind < 0.75:                   # conflicts on L2/L3 set 1
            addr = (4 << 30) + rng.randrange(24) * L3_SET_PERIOD + 64
            is_write = rng.random() < 0.3
        else:                               # random writes
            addr, is_write = (2 << 30) + rng.randrange(WRITE_BYTES), True
        translated = tlbs.translate(addr)
        results.append(translated)
        if translated[0]:
            for walk_addr in translated[2]:
                results.append(caches.access(walk_addr, False))
            tlbs.install(addr)
        results.append(caches.access(addr, is_write))
    return results, stats


@pytest.fixture(scope="module")
def hierarchy_run():
    return _hierarchy_run()


def _core_run():
    system = FullSystem(registry.build("ramulator-ddr4"), name="mcf")
    report = system.run(spec_trace("mcf", 9000), warmup_ops=1000)
    core = system.core
    return (repr(core.cycles), core.instructions,
            repr(report.cycles), report.instructions, repr(report.ipc),
            repr(report.llc_miss_rate), repr(report.llc_mpki),
            repr(report.stlb_mpki), report.elapsed_ps,
            sorted(core.phase_stats.instructions.items()),
            [(p, repr(c)) for p, c in sorted(core.phase_stats.cycles.items())],
            sorted(core.phase_stats.llc_misses.items()),
            sorted(core.phase_stats.tlb_misses.items()),
            sorted(system.stats.snapshot().items()),
            sorted(report.backend_counters.items()))


def _sha(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def test_hierarchy_stream_matches_golden_digest(hierarchy_run):
    results, stats = hierarchy_run
    assert _sha(results, sorted(stats.snapshot().items())) == HIERARCHY_GOLDEN


def test_hierarchy_stream_reaches_memory_with_dirty_victims(hierarchy_run):
    results, stats = hierarchy_run
    snap = stats.snapshot()
    assert any(r[0] == "mem" and r[2] for r in results)
    assert snap["L1D.writebacks"] and snap["L2.writebacks"]
    assert snap["L3.writebacks"] and snap["tlb.walks"]


def test_core_run_matches_golden_digest():
    assert _sha(_core_run()) == CORE_GOLDEN
