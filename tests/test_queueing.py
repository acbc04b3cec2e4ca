"""FCFS queueing algebra: Server, BankedServer, FcfsStation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.engine.queueing import BankedServer, FcfsStation, Server


class TestServer:
    def test_idle_server_serves_immediately(self):
        server = Server()
        assert server.serve(100, 50) == 150

    def test_busy_server_queues(self):
        server = Server()
        server.serve(0, 100)
        assert server.serve(10, 50) == 150  # starts at 100

    def test_gap_leaves_server_idle(self):
        server = Server()
        server.serve(0, 10)
        assert server.serve(100, 10) == 110

    def test_utilization(self):
        server = Server()
        server.serve(0, 30)
        server.serve(50, 20)
        assert server.utilization(100) == pytest.approx(0.5)
        assert server.served == 2

    @given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 10**4)),
                    min_size=1, max_size=60))
    def test_completions_monotonic_for_sorted_arrivals(self, jobs):
        """FCFS invariant: sorted arrivals produce sorted completions."""
        jobs = sorted(jobs)
        server = Server()
        completions = [server.serve(arr, svc) for arr, svc in jobs]
        assert completions == sorted(completions)
        for (arr, svc), done in zip(jobs, completions):
            assert done >= arr + svc


class TestBankedServer:
    def test_independent_banks(self):
        banks = BankedServer(4)
        a = banks.serve(0, 0, 100)
        b = banks.serve(1, 0, 100)
        assert a == b == 100  # different banks do not contend

    def test_same_bank_contends(self):
        banks = BankedServer(4)
        banks.serve(2, 0, 100)
        assert banks.serve(2, 0, 100) == 200

    def test_bank_wraps_modulo(self):
        banks = BankedServer(4)
        banks.serve(1, 0, 100)
        assert banks.serve(5, 0, 100) == 200  # 5 % 4 == 1

    def test_rejects_zero_banks(self):
        with pytest.raises(ConfigError):
            BankedServer(0)

    def test_served_total(self):
        banks = BankedServer(2)
        for i in range(6):
            banks.serve(i, 0, 1)
        assert banks.served == 6


class TestFcfsStation:
    def test_admits_when_space(self):
        station = FcfsStation(2)
        assert station.admit(100) == 100
        station.retire_at(500)

    def test_blocks_when_full(self):
        station = FcfsStation(2)
        station.admit(0)
        station.retire_at(100)
        station.admit(0)
        station.retire_at(200)
        # third entry must wait for the oldest to retire
        assert station.admit(10) == 100

    def test_expired_entries_free_slots(self):
        station = FcfsStation(1)
        station.admit(0)
        station.retire_at(50)
        assert station.admit(60) == 60  # slot already free

    def test_occupancy(self):
        station = FcfsStation(4)
        for _ in range(3):
            station.admit(0)
            station.retire_at(1000)
        assert station.occupancy(10) == 3
        assert station.occupancy(1001) == 0

    def test_drain_time(self):
        station = FcfsStation(4)
        station.admit(0)
        station.retire_at(300)
        station.admit(0)
        station.retire_at(700)
        assert station.drain_time(10) == 700
        assert station.drain_time(800) == 800

    def test_retire_clamps_monotonic(self):
        station = FcfsStation(4)
        station.admit(0)
        station.retire_at(500)
        station.admit(0)
        station.retire_at(100)  # would violate FCFS drain order
        assert station.drain_time(0) == 500

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError):
            FcfsStation(0)

    def test_wait_accounting(self):
        station = FcfsStation(1)
        station.admit(0)
        station.retire_at(100)
        station.admit(20)  # waits 80
        assert station.total_wait == 80

    @settings(max_examples=50)
    @given(capacity=st.integers(1, 8),
           jobs=st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 500)),
                         min_size=1, max_size=40))
    def test_admission_invariants(self, capacity, jobs):
        """Admissions never precede arrival; occupancy never exceeds
        capacity; with sorted arrivals admissions are monotone."""
        jobs = sorted(jobs)
        station = FcfsStation(capacity)
        admits = []
        for arrival, service in jobs:
            admit = station.admit(arrival)
            assert admit >= arrival
            station.retire_at(admit + service)
            admits.append(admit)
        assert admits == sorted(admits)
        # the bounded buffer never held more than its capacity
        assert station.peak_occupancy <= capacity
