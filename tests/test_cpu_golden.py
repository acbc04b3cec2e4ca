"""Golden digests of the CPU cache/TLB/core model and its SPEC traces.

Seeded runs must hash to the digests recorded from the reference
implementation, so a rewrite of the per-access paths or of the trace
records cannot change a single record, hit, victim, cycle or counter:

* a 50k-op stream straight through ``CacheHierarchy`` + ``TlbHierarchy``
  (hot set, a strided sweep larger than the 32 MiB L3, random writes,
  so dirty victims travel L1 -> L2 -> L3 -> memory and the STLB walks);
* one ``FullSystem`` run of ``spec_trace("mcf", 9000)`` on
  ``ramulator-ddr4``, floats hashed through ``repr``;
* every ``CLOUD_WORKLOADS`` trace through ``FullSystem`` on ``vans``,
  plain and with Pre-translation (``mkpt`` hints) over a Lazy-cache
  DIMM: the multi-phase, dependent, ``persistent`` and ``next_vaddr``
  paths that ``mcf``'s all-``rest`` trace never takes;
* the first 5,000 records of every Table IV ``spec_trace``, each as a
  tuple in ``MemOp`` field order (recorded when records were ``MemOp``
  objects, from their fields in declaration order).

``CLOUD_GOLDEN`` was re-recorded when the VANS station gauges moved into
the system's stats registry, so ``backend_counters`` now includes them.
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
from repro.optim import PreTranslation
from repro.workloads import CLOUD_WORKLOADS
from repro.workloads.spec import SPEC_WORKLOADS, spec_trace

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
CLOUD_GOLDEN = (
    "149c9ce6bdc272ff6d4912d19b0010f250f9ece6ef3fabee1bad3076690bd50f")
SPEC_GOLDEN = (
    "ac3e9c42d6021be4327f0b6ae622976f08df4dfc694c4fb08a2c88b3f8dc51d2")

CLOUD_OPS = 3000
CLOUD_WARMUP = 1000
SPEC_OPS = 5000


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


def _fingerprint(system, report):
    """Everything a run leaves behind in the core, caches, TLBs and
    backend, floats through ``repr``."""
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


def _core_run():
    system = FullSystem(registry.build("ramulator-ddr4"), name="mcf")
    report = system.run(spec_trace("mcf", 9000), warmup_ops=1000)
    return _fingerprint(system, report)


def _cloud_run():
    """Per cloud workload, a plain run and a Pre-translation + Lazy-cache
    run; ``phase_cpi`` keeps its insertion order (the report's)."""
    parts = []
    for name, trace_fn in CLOUD_WORKLOADS.items():
        for optimized in (False, True):
            pt = PreTranslation() if optimized else None
            system = FullSystem(registry.build("vans", lazy_cache=optimized),
                                name=name, pretranslation=pt)
            report = system.run(
                trace_fn(CLOUD_OPS + CLOUD_WARMUP, mkpt=optimized),
                max_ops=CLOUD_OPS, warmup_ops=CLOUD_WARMUP)
            parts.append((name, optimized, _fingerprint(system, report),
                          repr(report.phase_cpi),
                          sorted(pt.stats.snapshot().items()) if pt else None))
    return parts


def _spec_records():
    """Every Table IV trace's first ``SPEC_OPS`` records, as tuples."""
    return [(wl.name, [tuple(r) for r in spec_trace(wl.name, SPEC_OPS)])
            for wl in SPEC_WORKLOADS]


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


def test_cloud_runs_match_golden_digest():
    assert _sha(_cloud_run()) == CLOUD_GOLDEN


def test_spec_traces_match_golden_digest():
    assert _sha(_spec_records()) == SPEC_GOLDEN
