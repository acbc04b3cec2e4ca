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

    def test_counter_identity_per_path(self):
        """One counter per dotted name, the same object seen through a
        nesting registry."""
        outer, inner = StatsRegistry(), StatsRegistry()
        outer.nest("nvram", inner)
        assert outer.counter("imc.reads") is not outer.counter("imc.writes")
        hits = inner.counter("hits")
        counters, _, _ = outer.signals()
        assert counters["nvram.hits"] is hits

    def test_counters_and_snapshot(self):
        reg = StatsRegistry()
        reg.counter("reads").add()
        reg.counter("reads").add(2)
        assert reg.snapshot()["reads"] == 3

    def test_snapshot_and_diff(self):
        """A snapshot is a copy: later counts leave it as it was, so two
        snapshots taken around a run give that run's deltas."""
        reg = StatsRegistry()
        reg.counter("a").add(3)
        before = reg.snapshot()
        reg.counter("a").add(2)
        reg.counter("b").add(1)
        after = reg.snapshot()
        assert before == {"a": 3}
        assert after == {"a": 5, "b": 1}

    def test_histogram_in_snapshot(self):
        reg = StatsRegistry()
        reg.histogram("h").record(1)
        assert reg.snapshot()["h.count"] == 1

    def test_histogram_expands_to_count_mean_max(self):
        reg = StatsRegistry()
        reg.histogram("lat").record(10)
        reg.histogram("lat").record(30)
        snap = reg.snapshot()
        assert snap["lat.count"] == 2
        assert snap["lat.mean"] == 20
        assert snap["lat.max"] == 30

    def test_histogram_snapshot_keys_are_uniform(self):
        """Every histogram expands to the same self-describing key set."""
        reg = StatsRegistry()
        reg.histogram("lat").record(10)
        reg.histogram("empty")  # registered, never recorded
        snap = reg.snapshot()
        for name in ("lat", "empty"):
            for key in ("count", "sum", "min", "max", "mean", "p50", "p99"):
                assert f"{name}.{key}" in snap, f"{name}.{key}"
        assert snap["empty.count"] == 0
        assert snap["lat.p50"] == 10
        assert snap["lat.p99"] == 10

    def test_gauges_pull_at_snapshot_time(self):
        reg = StatsRegistry()
        state = {"v": 1}
        reg.gauge("depth", lambda: state["v"])
        state["v"] = 7
        assert reg.snapshot()["depth"] == 7

    def test_failing_gauge_does_not_abort_snapshot(self):
        """A raising gauge is reported under 'errors'; the rest survives."""
        reg = StatsRegistry()
        reg.counter("ok.count").add(3)
        reg.gauge("ok.depth", lambda: 7)
        reg.gauge("bad.depth", lambda: 1 // 0)
        snap = reg.snapshot()
        assert snap["ok.count"] == 3
        assert snap["ok.depth"] == 7
        assert "bad.depth" not in snap
        assert snap["errors"] == ["bad.depth"]

    def test_snapshot_orders_counters_histograms_gauges(self):
        """Kinds in a fixed order, each in registration order (progress
        frames keep a snapshot's first keys)."""
        reg = StatsRegistry()
        reg.gauge("g1", lambda: 1)
        reg.histogram("h").record(1)
        reg.counter("c2")
        reg.gauge("g0", lambda: 0)
        reg.counter("c1")
        keys = list(reg.snapshot())
        assert keys[:2] == ["c2", "c1"]
        assert keys[2:9] == [f"h.{k}" for k in (
            "count", "sum", "min", "max", "mean", "p50", "p99")]
        assert keys[9:] == ["g1", "g0"]

    def test_nested_names_are_prefixed(self):
        outer, inner = StatsRegistry(), StatsRegistry()
        outer.counter("own").add()
        outer.nest("nvram", inner)
        # registered after nesting: the view is live
        inner.counter("hits").add(4)
        inner.histogram("lat").record(5)
        inner.gauge("depth", lambda: 2)
        snap = outer.snapshot()
        assert snap["own"] == 1
        assert snap["nvram.hits"] == 4
        assert snap["nvram.lat.count"] == 1
        assert snap["nvram.depth"] == 2
        counters, histograms, gauges = outer.signals()
        assert list(counters) == ["own", "nvram.hits"]
        assert list(histograms) == ["nvram.lat"]
        assert list(gauges) == ["nvram.depth"]
        assert inner.snapshot()["hits"] == 4

    def test_nested_failing_gauge_errors_are_prefixed(self):
        outer, inner = StatsRegistry(), StatsRegistry()
        outer.nest("dimm", inner)
        inner.gauge("bad", lambda: 1 // 0)
        outer.gauge("other.bad", lambda: 1 // 0)
        assert outer.snapshot()["errors"] == ["other.bad", "dimm.bad"]
        assert inner.snapshot()["errors"] == ["bad"]
