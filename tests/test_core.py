"""Trace-driven core model."""

import pytest

from repro.baselines.slow_dram import ramulator_ddr4
from repro.cpu.core import CoreConfig, TraceCore
from repro.cpu.system import MemOp


def make_core(**kwargs):
    return TraceCore(ramulator_ddr4(), config=CoreConfig(**kwargs))


def test_nonmem_instructions_retire_at_width():
    core = make_core(width=4)
    core.execute([MemOp(nonmem=400, vaddr=0)])
    # 400 nonmem at width 4 = 100 cycles + the memory access
    assert core.cycles >= 100
    assert core.instructions == 401


def test_cache_hits_are_cheap():
    core = make_core()
    core.execute([MemOp(nonmem=0, vaddr=0)])
    miss_cycles = core.cycles
    core.execute([MemOp(nonmem=0, vaddr=0)])
    assert core.cycles - miss_cycles < miss_cycles / 4


def _spread_addr(i):
    """Distinct pages that also spread DRAM channels and banks, so
    memory-level parallelism is limited by the core, not one bank."""
    return i * ((1 << 21) + 64)


def test_dependent_loads_serialize():
    """Pointer chasing: dependent misses cost full latency each."""
    def run(dependent):
        core = make_core(mlp=8)
        ops = [MemOp(nonmem=0, vaddr=_spread_addr(i), dependent=dependent)
               for i in range(16)]
        core.execute(ops)
        return core.cycles

    assert run(True) > 1.5 * run(False)


def test_mlp_bounds_overlap():
    def run(mlp):
        core = make_core(mlp=mlp)
        ops = [MemOp(nonmem=0, vaddr=_spread_addr(i)) for i in range(64)]
        core.execute(ops)
        return core.cycles

    assert run(1) > run(8)


def test_tlb_walk_costs_cycles():
    """Sequential same-page ops avoid walks; page-hopping ops pay them."""
    same_page = make_core()
    same_page.execute([MemOp(nonmem=0, vaddr=64 * i) for i in range(32)])
    hopping = make_core()
    hopping.execute([MemOp(nonmem=0, vaddr=(1 << 22) * i) for i in range(32)])
    assert hopping.cycles > same_page.cycles


def test_persistent_write_reaches_backend():
    core = make_core()
    core.execute([MemOp(nonmem=0, vaddr=0, is_write=True, persistent=True)])
    assert core.backend.dram.stats.counter("dram.writes").value >= 1


def test_cached_write_stays_in_caches():
    core = make_core()
    core.execute([MemOp(nonmem=0, vaddr=0, is_write=True)])
    assert core.backend.dram.stats.counter("dram.writes").value == 0


def test_ipc_definition():
    core = make_core()
    core.execute([MemOp(nonmem=10, vaddr=0)])
    assert core.ipc == pytest.approx(core.instructions / core.cycles)


def test_measurement_window():
    core = make_core()
    core.execute([MemOp(nonmem=100, vaddr=i * 64) for i in range(10)])
    core.begin_measurement()
    assert core.measured_instructions == 0
    core.execute([MemOp(nonmem=100, vaddr=0)])
    assert core.measured_instructions == 101
    assert core.measured_cycles > 0
    assert core.instructions == 10 * 101 + 101  # global count keeps going


def test_phase_attribution():
    core = make_core()
    core.execute([
        MemOp(nonmem=10, vaddr=0, phase="read"),
        MemOp(nonmem=10, vaddr=1 << 22, phase="rest"),
    ])
    stats = core.phase_stats
    assert stats.instructions["read"] == 11
    assert stats.instructions["rest"] == 11
    assert stats.cpi("read") > 0
    assert stats.cpi("nonexistent") == 0.0


@pytest.mark.parametrize("max_ops", [0, 5])
def test_max_ops_limit(max_ops):
    core = make_core()
    core.execute((MemOp(nonmem=0, vaddr=0) for _ in range(1000)),
                 max_ops=max_ops)
    assert core.instructions == max_ops
