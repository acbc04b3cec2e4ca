"""Collections of the systems an experiment builds."""

from repro.instrument import Collection, announce


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
