"""iMC + VansSystem front end."""

import pytest

from repro.common.units import KIB, NS
from repro.vans import VansConfig, VansSystem
from repro.vans.imc import IntegratedMemoryController


class TestImc:
    def test_write_accept_is_wpq_admission(self):
        imc = IntegratedMemoryController(VansConfig())
        accept = imc.write(0, 100)
        assert accept == 100  # empty WPQ admits immediately

    def test_wpq_backpressure_after_capacity(self):
        imc = IntegratedMemoryController(VansConfig())
        accepts = [imc.write(i * 64, 0) for i in range(12)]
        # the first 8 (512B) admit at once; later ones wait on the drain
        assert accepts[7] == 0
        assert accepts[8] > 0
        assert accepts == sorted(accepts)

    def test_fence_drains_everything(self):
        imc = IntegratedMemoryController(VansConfig())
        now = 0
        for i in range(4):
            now = imc.write(i * 64, now)
        done = imc.fence(now)
        assert done > now
        assert imc.fence(done) == done  # second fence is free

    def test_interleaved_writes_spread_wpqs(self):
        imc = IntegratedMemoryController(VansConfig().with_dimms(6))
        imc.write(0, 0)
        imc.write(4 * KIB, 0)
        assert imc.wpqs[0].admitted == 1
        assert imc.wpqs[1].admitted == 1

    def test_read_counters(self):
        imc = IntegratedMemoryController(VansConfig())
        imc.read(0, 0)
        assert imc.stats.snapshot()["imc.reads"] == 1


class TestVansSystem:
    def test_read_includes_frontend(self, vans):
        done = vans.read(0, 0)
        assert done > vans.config.dimm.timing.frontend_read_ps

    def test_write_latency_much_smaller_than_read(self, vans):
        w = vans.write(0, 0)
        r = VansSystem().read(0, 0)
        assert w < r

    def test_submit_read_request(self, vans):
        from repro.engine.request import Op, Request
        req = vans.submit(Request(addr=128, op=Op.READ, issue_ps=0))
        assert req.complete_ps > 0
        assert req.latency_ps == req.complete_ps

    def test_submit_fence(self, vans):
        from repro.engine.request import Op, Request
        vans.write(0, 0)
        req = vans.submit(Request(addr=0, op=Op.FENCE, issue_ps=100))
        assert req.complete_ps >= 100

    def test_cold_read_lands_on_the_media_tier(self):
        """A cold read misses the RMW and AIT buffers and lands in the
        validated 300-500 ns AIT+media miss tier."""
        done = VansSystem().read(0, 0)
        assert 300_000 < done < 500_000

    def test_latency_histograms_collected(self, vans):
        vans.read(0, 0)
        vans.write(64, 10**6)
        assert vans.stats.histogram("vans.read_latency_ps").count == 1
        assert vans.stats.histogram("vans.write_latency_ps").count == 1

    def test_warm_fill_single_dimm(self, vans):
        vans.warm_fill(0, 16 * KIB)
        t = vans.read(0, 0)
        t2 = VansSystem().read(0, 0)
        assert t < t2  # warm hit vs cold miss

    def test_warm_fill_interleaved(self):
        system = VansSystem(VansConfig().with_dimms(6))
        system.warm_fill(0, 64 * KIB)
        hits_possible = sum(len(d._ait_tags) for d in system.imc.dimms)
        assert hits_possible >= 16  # 64KB = 16 pages spread over dimms

    def test_reset_state(self, vans):
        vans.warm_fill(0, 16 * KIB)
        vans.reset_state()
        assert len(vans.dimm._rmw_tags) == 0

    def test_name_reflects_dimms(self):
        assert VansSystem(VansConfig().with_dimms(6)).name == "vans-6dimm"

    def test_counters_exposed(self, vans):
        vans.read(0, 0)
        assert vans.instrument_snapshot()["dimm.reads"] == 1

    def test_interleaving_speeds_up_scattered_writes(self):
        def burst_time(ndimms):
            cfg = VansConfig().with_dimms(ndimms)
            system = VansSystem(cfg)
            now = 0
            # write bursts landing on distinct 4KB chunks
            for i in range(48):
                accept = system.write(i * 4 * KIB, now)
                now = accept + 5 * NS
            return system.fence(now)

        assert burst_time(6) < burst_time(1)
