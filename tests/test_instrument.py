"""The instrumentation bus."""

from repro.instrument import (
    NULL_BUS,
    Collection,
    InstrumentBus,
    announce,
)


class TestNullBus:
    def test_everything_is_a_noop(self):
        NULL_BUS.counter("a").add()
        NULL_BUS.histogram("b").record(5)
        NULL_BUS.gauge("c", lambda: 1)
        assert NULL_BUS.snapshot() == {}

    def test_scope_returns_itself(self):
        assert NULL_BUS.scope("x") is NULL_BUS


class TestInstrumentBus:
    def test_counters_and_snapshot(self):
        bus = InstrumentBus()
        bus.counter("reads").add()
        bus.counter("reads").add(2)
        assert bus.snapshot()["reads"] == 3

    def test_counter_identity_per_path(self):
        bus = InstrumentBus()
        assert bus.counter("x") is bus.counter("x")

    def test_gauges_pull_at_snapshot_time(self):
        bus = InstrumentBus()
        state = {"v": 1}
        bus.gauge("depth", lambda: state["v"])
        state["v"] = 7
        assert bus.snapshot()["depth"] == 7

    def test_histogram_expands_to_count_mean_max(self):
        bus = InstrumentBus()
        bus.histogram("lat").record(10)
        bus.histogram("lat").record(30)
        snap = bus.snapshot()
        assert snap["lat.count"] == 2
        assert snap["lat.mean"] == 20
        assert snap["lat.max"] == 30

    def test_histogram_snapshot_keys_are_uniform(self):
        """Every histogram expands to the same self-describing key set."""
        bus = InstrumentBus()
        bus.histogram("lat").record(10)
        bus.histogram("empty")  # registered, never recorded
        snap = bus.snapshot()
        for name in ("lat", "empty"):
            for key in ("count", "sum", "min", "max", "mean", "p50", "p99"):
                assert f"{name}.{key}" in snap, f"{name}.{key}"
        assert snap["empty.count"] == 0
        assert snap["lat.p50"] == 10
        assert snap["lat.p99"] == 10

    def test_failing_gauge_does_not_abort_snapshot(self):
        """A raising gauge is reported under 'errors'; the rest survives."""
        bus = InstrumentBus()
        bus.counter("ok.count").add(3)
        bus.gauge("ok.depth", lambda: 7)
        bus.gauge("bad.depth", lambda: 1 // 0)
        snap = bus.snapshot()
        assert snap["ok.count"] == 3
        assert snap["ok.depth"] == 7
        assert "bad.depth" not in snap
        assert snap["errors"] == ["bad.depth"]

    def test_failing_gauge_errors_rescope(self):
        """ScopedBus.snapshot re-scopes error paths like value paths."""
        bus = InstrumentBus()
        scoped = bus.scope("dimm")
        scoped.gauge("bad", lambda: 1 // 0)
        bus.gauge("other.bad", lambda: 1 // 0)
        assert bus.snapshot()["errors"] == ["dimm.bad", "other.bad"]
        assert scoped.snapshot()["errors"] == ["bad"]


class TestScopedBus:
    def test_scope_prefixes_paths(self):
        bus = InstrumentBus()
        bus.scope("imc").scope("dimm0").counter("hits").add()
        assert bus.snapshot()["imc.dimm0.hits"] == 1

    def test_scoped_snapshot_is_scope_relative(self):
        bus = InstrumentBus()
        imc = bus.scope("imc")
        imc.counter("hits").add(4)
        bus.counter("other").add()
        assert imc.snapshot() == {"hits": 4}


class TestCollection:
    class FakeSystem:
        def __init__(self, snap):
            self._snap = snap

        def instrument_snapshot(self):
            return self._snap

    def test_announce_outside_collection_is_noop(self):
        announce(object())  # must not raise

    def test_merged_sums_numeric_paths(self):
        with Collection() as col:
            announce(self.FakeSystem({"a": 1, "b": 2.5}))
            announce(self.FakeSystem({"a": 10, "c": "text"}))
        merged = col.merged()
        assert merged["a"] == 11
        assert merged["b"] == 2.5
        assert "c" not in merged
        assert merged["systems"] == 2

    def test_nested_collections_innermost_wins(self):
        with Collection() as outer:
            with Collection() as inner:
                announce(self.FakeSystem({"x": 1}))
        assert len(inner) == 1
        assert len(outer) == 0

    def test_merged_is_live_while_active(self):
        snap = {"a": 1}
        with Collection() as col:
            announce(self.FakeSystem(snap))
            assert col.merged()["a"] == 1
            snap["a"] = 5
            assert col.merged()["a"] == 5

    def test_merged_freezes_at_exit(self):
        """Gauge activity after the collection closes must not leak back."""
        snap = {"a": 1}
        with Collection() as col:
            announce(self.FakeSystem(snap))
        snap["a"] = 99  # system keeps running after the experiment
        assert col.merged()["a"] == 1

    def test_frozen_snapshot_is_a_copy(self):
        with Collection() as col:
            announce(self.FakeSystem({"a": 1}))
        col.merged()["a"] = 42
        assert col.merged()["a"] == 1

    def test_frozen_snapshot_with_real_system(self):
        """End-to-end: a registry system driven after exit stays frozen."""
        from repro import registry

        with Collection() as c1:
            system = registry.build("vans")
            system.read(0, now=0)
        snap1 = c1.merged()
        assert snap1["imc.reads"] == 1
        # Keep exercising the same system after c1 closed.
        for i in range(1, 8):
            system.read(i * 64, now=i * 1000)
        assert c1.merged() == snap1
        # A second collection sees only its own systems.
        with Collection() as c2:
            other = registry.build("ramulator-ddr4")
            other.read(0, now=0)
        assert not any(path.startswith("imc.") for path in c2.merged())
