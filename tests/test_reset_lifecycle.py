"""Resettable target lifecycle and the registry warm cache.

The contract under test: for every system target,

    build -> drive -> reset -> drive

produces *bit-identical* timings, counters, and snapshots to driving a
freshly built system — which is what lets the registry park finished
systems (``release``) and hand them back out (``acquire``) instead of
rebuilding, and what keeps served sessions bit-identical to batch runs.
"""

from __future__ import annotations

import pytest

from repro import registry
from repro.common.errors import (
    UnknownExperimentError,
    UnknownOverrideError,
    UnknownTargetError,
)
from repro.flight.recorder import FlightRecorder, session as flight_session


@pytest.fixture(autouse=True)
def _no_warm_cache_leak():
    """Every test starts and ends with the warm cache off."""
    registry.disable_warm_cache()
    yield
    registry.disable_warm_cache()


def drive(system, nops: int = 1500, region: int = 1 << 20):
    """Deterministic mixed workload; returns the observable outcome."""
    now = 0
    for i in range(nops):
        now = system.read((i * 67 * 64) % region, now)
        now = system.write((i * 131 * 64) % region, now)
        if i % 64 == 0:
            now = system.fence(now)
    stats = (dict(system.stats.snapshot())
             if hasattr(system, "stats") else {})
    return now, stats, dict(system.instrument_snapshot())


SYSTEM_TARGETS = registry.target_names(systems_only=True)


class TestResetBitIdentity:
    @pytest.mark.parametrize("name", SYSTEM_TARGETS)
    def test_reset_equals_fresh_build(self, name):
        fresh = drive(registry.build(name))
        reused_system = registry.build(name)
        drive(reused_system)           # dirty it
        reused_system.reset()
        assert drive(reused_system) == fresh

    @pytest.mark.parametrize("name", SYSTEM_TARGETS)
    def test_acquire_release_reuse_equals_rebuild(self, name):
        baseline = drive(registry.build(name))
        registry.enable_warm_cache(limit=4)
        first = registry.acquire(name)
        assert drive(first) == baseline
        assert registry.release(first) is True
        second = registry.acquire(name)
        assert second is first, "warm cache should hand back the " \
                                "parked instance"
        assert drive(second) == baseline
        assert registry.warm_cache_stats()["hits"] == 1

    def test_reset_clears_memory_mode_tags(self):
        system = registry.build("memory-mode")
        drive(system, nops=200)
        assert system._tags
        system.reset()
        assert not system._tags
        assert system.hit_rate == 0.0

    def test_reset_clears_quartz_epoch_state(self):
        system = registry.build("quartz")
        drive(system, nops=300)
        assert system._accesses > 0
        system.reset()
        assert system._accesses == 0
        assert system.injected_stall_ps == 0


class TestWarmCachePolicy:
    def test_disabled_cache_never_parks(self):
        system = registry.build("vans")
        assert registry.release(system) is False
        assert registry.warm_cache_stats()["size"] == 0

    def test_cache_is_bounded(self):
        registry.enable_warm_cache(limit=1)
        a = registry.build("vans")
        b = registry.build("vans")
        assert registry.release(a) is True
        assert registry.release(b) is False          # full: dropped
        stats = registry.warm_cache_stats()
        assert stats["size"] == 1 and stats["dropped"] == 1

    def test_distinct_overrides_never_cross(self):
        registry.enable_warm_cache(limit=4)
        plain = registry.acquire("vans")
        lazy = registry.acquire("vans", lazy_cache=True)
        registry.release(plain)
        registry.release(lazy)
        again = registry.acquire("vans", lazy_cache=True)
        assert again is lazy
        assert registry.acquire("vans") is plain

    def test_flight_wired_systems_are_ineligible(self):
        registry.enable_warm_cache(limit=4)
        recorder = FlightRecorder()
        with flight_session(recorder):
            system = registry.build("vans")
        assert system.hooks.flight is recorder
        assert registry.release(system) is False
        assert registry.warm_cache_stats()["ineligible"] == 1

    def test_active_flight_session_bypasses_cache(self):
        registry.enable_warm_cache(limit=4)
        parked = registry.acquire("vans")
        registry.release(parked)
        with flight_session(FlightRecorder()):
            fresh = registry.build("vans")
        assert fresh is not parked, \
            "a flight session must force a fresh constructor-wired build"

    def test_unhashable_override_is_uncacheable(self):
        registry.enable_warm_cache(limit=4)
        assert registry._warm_key("vans", {"config": [1, 2]}) is None
        system = registry.build("ramulator-ddr4", frontend_ps=30_000)
        assert registry.release(system) is True
        assert registry.acquire("ramulator-ddr4",
                                frontend_ps=30_000) is system

    def test_release_detaches_telemetry(self):
        from repro.telemetry import TelemetrySampler
        from repro.telemetry import session as telemetry_session
        registry.enable_warm_cache(limit=4)
        with telemetry_session(TelemetrySampler(interval_ps=10_000)):
            system = registry.build("vans")
            assert system.hooks.ticks != ()
        registry.release(system)
        assert system.hooks.ticks == ()


class TestOverrideValidation:
    def test_typo_raises_and_names_the_key(self):
        with pytest.raises(UnknownOverrideError) as exc_info:
            registry.build("vans", lazy_cahe=True)
        message = str(exc_info.value)
        assert "lazy_cahe" in message
        assert "lazy_cache" in message          # suggestion
        assert "vans" in message

    def test_every_documented_vans_knob_is_allowed(self):
        allowed = registry.spec("vans").allowed
        for knob in ("ndimms", "interleaved", "media_capacity",
                     "lazy_cache", "migrate_threshold",
                     "wear_decay_window", "combine_window_ps",
                     "engine_holds_partial", "ddrt_detailed",
                     "table_cache_entries", "collect_latency_histograms",
                     "config", "track_line_wear", "instrument"):
            assert knob in allowed, knob

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
