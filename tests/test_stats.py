"""Counters, histograms, series, registry."""

import pytest
from hypothesis import given, strategies as st

from repro.engine.stats import Counter, Histogram, LatencySeries, StatsRegistry


class TestCounter:
    def test_add_and_reset(self):
        c = Counter("x")
        c.add()
        c.add(5)
        assert c.value == 6
        c.reset()
        assert c.value == 0


class TestHistogram:
    def test_mean_min_max(self):
        h = Histogram("lat")
        for v in (10, 20, 30):
            h.record(v)
        assert h.mean == 20
        assert h.min == 10
        assert h.max == 30
        assert h.count == 3

    def test_percentiles(self):
        h = Histogram("lat")
        for v in range(1, 101):
            h.record(v)
        assert h.percentile(50) == pytest.approx(50.5, abs=1)
        assert h.percentile(0) == 1
        assert h.percentile(100) == 100

    def test_empty_percentile(self):
        assert Histogram("x").percentile(50) == 0.0

    def test_decimation_preserves_extremes_and_mean(self):
        h = Histogram("lat", max_samples=128)
        for v in range(1000):
            h.record(v)
        assert h.count == 1000
        assert h.min == 0
        assert h.max == 999
        assert h.mean == pytest.approx(499.5)

    def test_percentile_extremes_survive_decimation(self):
        """p100/p0 answer from tracked max/min even if decimation
        dropped the extreme sample itself."""
        h = Histogram("lat", max_samples=4)
        for v in (1, 999, 2, 3):  # 999 lands on a decimated index
            h.record(v)
        assert 999 not in h._samples
        assert h.percentile(100) == 999.0
        lo = Histogram("lat", max_samples=4)
        for v in (5, 0, 6, 7):
            lo.record(v)
        assert 0 not in lo._samples
        assert lo.percentile(0) == 0.0

    def test_dropped_counts_decimated_samples(self):
        h = Histogram("lat", max_samples=4)
        for v in (10, 20):
            h.record(v)
        assert h.dropped == 0
        for v in (30, 40, 50):
            h.record(v)
        assert h.count == 5
        assert h.dropped == h.count - len(h._samples) > 0

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=500))
    def test_percentile_100_is_max_always(self, values):
        h = Histogram("x", max_samples=16)
        for v in values:
            h.record(v)
        assert h.percentile(100) == max(values)
        assert h.percentile(0) == min(values)

    def test_stddev(self):
        h = Histogram("x")
        for v in (2, 4, 4, 4, 5, 5, 7, 9):
            h.record(v)
        assert h.stddev() == pytest.approx(2.138, abs=0.01)

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=300))
    def test_mean_matches_total(self, values):
        h = Histogram("x")
        for v in values:
            h.record(v)
        assert h.mean == pytest.approx(sum(values) / len(values))
        assert h.min == min(values)
        assert h.max == max(values)


class TestLatencySeries:
    def test_points_ordering(self):
        s = LatencySeries("x")
        s.add(1, 10.0)
        s.add(2, 20.0)
        assert s.xs == [1, 2]
        assert s.values == [10.0, 20.0]
        assert len(s) == 2
        assert list(s) == [(1, 10.0), (2, 20.0)]


class TestStatsRegistry:
    def test_counter_identity(self):
        reg = StatsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_snapshot_and_diff(self):
        reg = StatsRegistry()
        reg.counter("a").add(3)
        before = reg.snapshot()
        reg.counter("a").add(2)
        reg.counter("b").add(1)
        diff = reg.diff(before)
        assert diff["a"] == 2
        assert diff["b"] == 1

    def test_histogram_in_snapshot(self):
        reg = StatsRegistry()
        reg.histogram("h").record(1)
        assert reg.snapshot()["h.count"] == 1
