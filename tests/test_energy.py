"""Energy accounting."""

import pytest

from repro.energy import PJ, EnergyCosts, energy_of
from repro.vans import VansConfig, VansSystem


def run_reads(system, n=50):
    now = 0
    for i in range(n):
        now = system.read(i * 4096, now)
    return now


def run_writes(system, n=50):
    now = 0
    for i in range(n):
        now = system.write(i * 4096, now)
    return system.fence(now)


def test_idle_system_zero_energy():
    assert energy_of(VansSystem()).total_j == 0.0


def test_reads_cost_media_read_energy():
    system = VansSystem()
    run_reads(system)
    report = energy_of(system)
    assert report.by_component["media-read"] > 0
    assert report.by_component["media-write"] == 0


def test_sequential_writes_dominated_by_media_write():
    """Sequential stores combine into full 256B ops: pure write traffic."""
    system = VansSystem()
    now = 0
    for i in range(200):
        now = system.write(i * 64, now)
    system.fence(now)
    report = energy_of(system)
    assert report.by_component["media-write"] > \
        report.by_component["media-read"]


def test_random_partial_writes_pay_merge_read_energy():
    """Scattered 64B stores read-modify-write: the 4KB merge fills make
    read energy a first-order cost of small random writes."""
    system = VansSystem()
    run_writes(system)
    report = energy_of(system)
    assert report.by_component["media-read"] > 0


def test_write_energy_exceeds_read_energy_per_op():
    reads = VansSystem()
    run_reads(reads)
    writes = VansSystem()
    run_writes(writes)
    assert energy_of(writes).total_j > energy_of(reads).total_j


def test_migration_energy_accounted(fast_wear_config):
    system = VansSystem(fast_wear_config)
    now = 0
    for _ in range(fast_wear_config.dimm.wear.migrate_threshold + 5):
        now = system.write(0, now)
        now = system.fence(now)
    report = energy_of(system)
    assert report.by_component["wear-migration"] > 0


def test_lazy_cache_saves_media_write_energy(fast_wear_config):
    def energy(lazy):
        system = VansSystem(fast_wear_config.with_lazy_cache(lazy))
        now = 0
        for _ in range(fast_wear_config.dimm.wear.migrate_threshold * 3):
            now = system.write(0, now)
            now = system.fence(now)
        return energy_of(system).by_component["media-write"]

    assert energy(True) < energy(False)


@pytest.mark.parametrize("ndimms", [1, 6])
def test_on_dimm_dram_counts_every_dimm(ndimms):
    """Each DIMM's on-DIMM DRAM (AIT and RMW buffer fills) counts its
    accesses in that DIMM's own registry, not in the system's."""
    system = VansSystem(VansConfig().with_dimms(ndimms))
    now = 0
    for i in range(200):
        now = system.read(i * 4096, now)
    for i in range(200):
        now = system.write(i * 4096 + 64, now)
    system.fence(now)
    per_dimm = [d.dram.stats.counter("dram.reads").value
                + d.dram.stats.counter("dram.writes").value
                for d in system.imc.dimms]
    assert all(per_dimm)
    costs = EnergyCosts()
    assert energy_of(system, costs).by_component["on-dimm-dram"] == \
        pytest.approx(sum(per_dimm) * costs.dram_access_pj * PJ)


def test_custom_costs():
    system = VansSystem()
    run_reads(system, 10)
    expensive = energy_of(system, EnergyCosts(media_read_pj=1e6))
    cheap = energy_of(system, EnergyCosts(media_read_pj=1.0))
    assert expensive.total_j > cheap.total_j


def test_render_lists_components():
    system = VansSystem()
    run_writes(system, 10)
    text = energy_of(system).render()
    assert "media-write" in text
    assert "total" in text


def test_fractions_sum_to_one():
    system = VansSystem()
    run_writes(system, 20)
    report = energy_of(system)
    total = sum(report.fraction(c) for c in report.by_component)
    assert total == pytest.approx(1.0)
