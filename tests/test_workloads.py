"""Workload generators: zipf, SPEC calibration, cloud patterns."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.common.units import MIB
from repro.cpu.system import MemOp
from repro.workloads import (
    CLOUD_WORKLOADS,
    SPEC_WORKLOADS,
    ZipfSampler,
    fio_write_trace,
    hashmap_trace,
    linkedlist_trace,
    redis_trace,
    spec_trace,
    tpcc_trace,
    ycsb_trace,
)
from repro.workloads.spec import spec_workload


class TestZipf:
    def test_rank_zero_most_likely(self):
        zipf = ZipfSampler(1000, theta=0.99, seed=1)
        keys = zipf.sample_many(20000)
        counts = {}
        for k in keys:
            counts[int(k)] = counts.get(int(k), 0) + 1
        assert max(counts, key=counts.get) == 0

    def test_probability_sums_to_one(self):
        zipf = ZipfSampler(50, theta=0.9)
        total = sum(zipf.probability(i) for i in range(50))
        assert total == pytest.approx(1.0)

    def test_theta_zero_uniform(self):
        zipf = ZipfSampler(10, theta=0.0)
        probs = [zipf.probability(i) for i in range(10)]
        assert all(p == pytest.approx(0.1) for p in probs)

    def test_determinism(self):
        a = ZipfSampler(100, seed=3).sample_many(50)
        b = ZipfSampler(100, seed=3).sample_many(50)
        assert list(a) == list(b)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            ZipfSampler(0)
        with pytest.raises(ConfigError):
            ZipfSampler(10, theta=-1)

    @given(st.integers(1, 500), st.floats(0, 2))
    def test_samples_in_range(self, n, theta):
        zipf = ZipfSampler(n, theta=theta, seed=0)
        assert all(0 <= k < n for k in zipf.sample_many(20))


class TestSpec:
    def test_thirteen_workloads(self):
        assert len(SPEC_WORKLOADS) == 13

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            spec_workload("quake")

    def test_trace_length_and_types(self):
        ops = list(spec_trace("gcc", 500))
        assert len(ops) == 500
        assert all(isinstance(op, MemOp) for op in ops)

    def test_determinism(self):
        a = [(o.vaddr, o.is_write) for o in spec_trace("mcf", 200, seed=7)]
        b = [(o.vaddr, o.is_write) for o in spec_trace("mcf", 200, seed=7)]
        assert a == b

    def test_footprint_respected(self):
        wl = spec_workload("sjeng")
        ops = list(spec_trace("sjeng", 5000))
        assert max(op.vaddr for op in ops) < wl.footprint_bytes + 2 * 256 * 1024

    def test_memory_intensity_ordering(self):
        """mcf touches cold memory far more often than omnetpp."""
        def cold_ops(name):
            return sum(1 for op in spec_trace(name, 8000)
                       if op.vaddr >= 256 * 1024)
        assert cold_ops("mcf") > 3 * cold_ops("omnetpp")

    def test_write_fraction_reasonable(self):
        ops = list(spec_trace("lbm", 5000))
        frac = sum(op.is_write for op in ops) / len(ops)
        assert 0.3 < frac < 0.6


class TestCloud:
    def test_registry_has_six_workloads(self):
        assert set(CLOUD_WORKLOADS) == {"fio-write", "ycsb", "tpcc",
                                        "hashmap", "redis", "linkedlist"}

    @pytest.mark.parametrize("name", sorted(CLOUD_WORKLOADS))
    def test_generators_produce_memops(self, name):
        """Exactly ``nops`` ops: the request the window ends in is cut
        there, so a shorter window is a prefix of a longer one."""
        ops = list(CLOUD_WORKLOADS[name](4000))
        assert len(ops) == 4000
        assert all(isinstance(op, MemOp) for op in ops)
        assert ops == list(CLOUD_WORKLOADS[name](4100))[:4000]

    def test_fio_is_sequential_writes(self):
        ops = list(fio_write_trace(200))
        assert all(op.is_write and op.persistent for op in ops)
        addrs = [op.vaddr for op in ops[:64]]
        assert addrs == sorted(addrs)

    def test_linkedlist_all_dependent(self):
        ops = list(linkedlist_trace(100))
        assert all(op.dependent for op in ops)

    def test_linkedlist_pointers_consistent(self):
        """next_vaddr of hop i is the address of hop i+1 (with mkpt)."""
        ops = list(linkedlist_trace(50, mkpt=True))
        for a, b in zip(ops, ops[1:]):
            assert a.next_vaddr == b.vaddr

    def test_linkedlist_ring_repeats(self):
        ops = list(linkedlist_trace(300, nnodes=100))
        assert ops[0].vaddr == ops[100].vaddr == ops[200].vaddr

    def test_mkpt_only_when_requested(self):
        assert not any(op.mkpt for op in linkedlist_trace(50, mkpt=False))
        assert all(op.mkpt for op in linkedlist_trace(50, mkpt=True))

    def test_ycsb_concentrates_writes(self):
        ops = [op for op in ycsb_trace(5000) if op.is_write]
        counts = {}
        for op in ops:
            counts[op.vaddr] = counts.get(op.vaddr, 0) + 1
        top = sorted(counts.values(), reverse=True)
        assert top[0] > 20 * (sum(top) / len(top))

    def test_ycsb_writes_are_persistent(self):
        assert all(op.persistent for op in ycsb_trace(500) if op.is_write)

    def test_redis_phases(self):
        ops = list(redis_trace(500))
        phases = {op.phase for op in ops}
        assert phases == {"read", "rest"}
        reads = [op for op in ops if op.phase == "read"]
        assert all(op.dependent for op in reads)

    def test_redis_chains_stable(self):
        """The same key always resolves to the same chain (persistence)."""
        a = [op.vaddr for op in redis_trace(400, seed=9)]
        b = [op.vaddr for op in redis_trace(400, seed=9)]
        assert a == b

    def test_tpcc_mixed_rw(self):
        ops = list(tpcc_trace(700))
        assert any(op.is_write for op in ops)
        assert any(op.dependent for op in ops)

    def test_hashmap_triples(self):
        ops = list(hashmap_trace(300))
        writes = [op for op in ops if op.is_write]
        assert writes and all(op.persistent for op in writes)
