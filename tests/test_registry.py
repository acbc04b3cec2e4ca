"""The unified target registry."""

import gc

import pytest

from repro import registry
from repro.common.errors import (
    ReproError,
    UnknownExperimentError,
    UnknownOverrideError,
    UnknownTargetError,
)
from repro.instrument import Collection
from repro.vans.config import VansConfig
from repro.vans.memory_mode import MemoryModeSystem
from repro.vans.system import VansSystem


class TestSpecs:
    def test_every_named_target_builds(self):
        for name in registry.target_names():
            obj = registry.build(name)
            assert obj is not None, name

    def test_every_system_target_serves_reads(self):
        for name in registry.target_names(systems_only=True):
            system = registry.build(name)
            assert system.read(0, 0) > 0, name

    def test_unknown_target_raises_typed_error(self):
        with pytest.raises(UnknownTargetError) as exc_info:
            registry.build("no-such-system")
        assert isinstance(exc_info.value, ReproError)
        assert "vans" in str(exc_info.value)

    def test_factory_validates_name_eagerly(self):
        with pytest.raises(UnknownTargetError):
            registry.factory("no-such-system")

    def test_categories(self):
        assert "vans" in registry.target_names(category="vans")
        assert "optane-ref" not in registry.target_names(systems_only=True)


class TestVansOverrides:
    def test_ndimms_override_matches_with_dimms(self):
        system = registry.build("vans-6dimm")
        assert system.config == VansConfig().with_dimms(6)

    def test_lazy_cache_override(self):
        system = registry.build("vans", lazy_cache=True)
        assert system.config.dimm.lazy_cache

    def test_nested_overrides(self):
        system = registry.build(
            "vans", migrate_threshold=123, combine_window_ps=0,
            engine_holds_partial=False)
        assert system.config.dimm.wear.migrate_threshold == 123
        assert system.config.dimm.lsq.combine_window_ps == 0
        assert not system.config.dimm.timing.engine_holds_partial

    def test_base_config_takes_overrides(self):
        cfg = VansConfig().with_lazy_cache(True)
        system = registry.build("vans", config=cfg, ndimms=2)
        assert system.config.dimm.lazy_cache
        assert system.config.ndimms == 2

    def test_baseline_kwargs_reach_the_model(self):
        system = registry.build("ramulator-ddr4", frontend_ps=30_000)
        assert system.frontend_ps == 30_000


class TestInstrumentation:
    def test_built_vans_has_live_bus(self):
        system = registry.build("vans")
        system.read(0, 0)
        snap = system.instrument_snapshot()
        assert any(".media_port." in k for k in snap)

    def test_bare_construction_snapshots_like_registry_build(self):
        """A bare constructor publishes the same signals the registry's
        build does: one stats registry per system, no opt-in."""
        for name, bare in (("vans", VansSystem),
                           ("memory-mode", MemoryModeSystem)):
            snapshots = []
            for system in (bare(), registry.build(name)):
                now = 0
                for i in range(64):
                    now = system.read(i * 4096, now)
                    now = system.write(i * 64, now)
                    if i % 16 == 15:
                        now = system.fence(now)
                snapshots.append(system.instrument_snapshot())
            assert snapshots[0] == snapshots[1], name
            assert any(".media_port." in k for k in snapshots[0]), name

    def test_dropped_systems_leave_no_cyclic_garbage(self):
        """No gauge closes over an object that holds its registry, so a
        system is freed by reference counting alone."""
        gc.collect()
        gc.disable()
        try:
            for name in registry.target_names(systems_only=True):
                system = registry.build(name)
                system.write(0, system.read(0, 0))
                del system
                assert gc.collect() == 0, name
        finally:
            gc.enable()

    def test_collection_gathers_registry_builds(self):
        with Collection() as col:
            a = registry.build("vans")
            b = registry.build("ramulator-ddr4")
            a.read(0, 0)
            b.read(0, 0)
            merged = col.merged()
        assert merged["systems"] == 2
        assert merged["dimm.rmw_misses"] >= 1
        assert merged["slowdram.reads"] == 1


class TestOverrideValidation:
    def test_typo_raises_and_names_the_key(self):
        with pytest.raises(UnknownOverrideError) as exc_info:
            registry.build("vans", lazy_cahe=True)
        message = str(exc_info.value)
        assert "lazy_cahe" in message
        assert "lazy_cache" in message          # suggestion
        assert "vans" in message

    def test_every_documented_vans_knob_is_allowed(self):
        assert registry.spec("vans").allowed == {
            "ndimms", "interleaved", "media_capacity", "lazy_cache",
            "migrate_threshold", "combine_window_ps",
            "engine_holds_partial", "config", "track_line_wear"}


    def test_baseline_override_surface(self):
        with pytest.raises(UnknownOverrideError):
            registry.build("pmep", frontend_ps=1)  # a slow-dram knob
        registry.build("pmep", read_delay_ps=1000)  # valid

    def test_factory_validates_overrides_eagerly(self):
        with pytest.raises(UnknownOverrideError):
            registry.factory("vans", lazy_cahe=True)

    def test_externally_registered_specs_skip_validation(self):
        spec = registry.TargetSpec(
            "test-unvalidated", "no allowed set declared",
            lambda **kw: registry.build("quartz"))
        registry.register_target(spec)
        try:
            assert registry.build("test-unvalidated",
                                  anything_goes=True) is not None
        finally:
            registry._SPECS.pop("test-unvalidated", None)


class TestSuggestions:
    def test_unknown_target_suggests_closest(self):
        with pytest.raises(UnknownTargetError) as exc_info:
            registry.spec("van")
        message = str(exc_info.value)
        assert "did you mean" in message and "'vans'" in message
        assert "choose from:" in message

    def test_unknown_experiment_suggests_closest(self):
        from repro.experiments.exec import validate_ids
        with pytest.raises(UnknownExperimentError) as exc_info:
            validate_ids(["fig99"])
        message = str(exc_info.value)
        assert "did you mean" in message
        assert "known experiments:" in message

    def test_no_suggestion_for_hopeless_typos(self):
        with pytest.raises(UnknownTargetError) as exc_info:
            registry.spec("zzzzzzzzzz")
        assert "did you mean" not in str(exc_info.value)
