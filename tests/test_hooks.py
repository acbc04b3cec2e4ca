"""The one-hook-bundle contract.

Every built system owns one :class:`~repro.hooks.Hooks` bundle and
shares it with every station it builds, so observers set on it after
the build reach every station; Memory Mode's backing NVRAM follows the
outer recorder and injector but never ticks.
"""

from __future__ import annotations

import pytest

from repro import registry
from repro.common.errors import UnknownOverrideError
from repro.faults import FaultInjector, FaultPlan
from repro.faults.persistence import PersistenceChecker
from repro.flight import NULL_FLIGHT, FlightRecorder
from repro.hooks import Hooks

VANS_CASES = [
    pytest.param("vans", {}, id="vans"),
    pytest.param("vans-6dimm", {}, id="vans-6dimm"),
    pytest.param("vans-lazy", {}, id="vans-lazy"),
    pytest.param("vans", {"ddrt_detailed": True}, id="vans-ddrt"),
]


def _stations(vans):
    """Every hook-holding station of a :class:`VansSystem`."""
    imc = vans.imc
    yield imc
    yield from imc.ddrt or ()
    for dimm in imc.dimms:
        yield dimm
        yield dimm.media
        yield dimm.wear
        if dimm.lazy is not None:
            yield dimm.lazy


class _Ticks:
    """Tick sink that only counts."""

    enabled = True

    def __init__(self) -> None:
        self.ticks = 0

    def tick(self, now_ps: int) -> None:
        self.ticks += 1


@pytest.mark.parametrize("name,overrides", VANS_CASES)
def test_every_station_shares_the_system_bundle(name, overrides):
    system = registry.build(name, **overrides)
    stations = list(_stations(system))
    assert len(stations) >= 4
    for station in stations:
        assert station.hooks is system.hooks, type(station).__name__


def test_memory_mode_stations_share_the_nested_bundle():
    system = registry.build("memory-mode")
    inner = system.nvram.hooks
    assert inner is not system.hooks
    for station in _stations(system.nvram):
        assert station.hooks is inner, type(station).__name__


def _drive(system):
    """Writes that combine, wear a 64 KiB block past a low migration
    threshold, then reads across pages and a fence; returns every
    completion time."""
    now = 0
    times = []
    for i in range(96):
        now = system.write((i % 8) * 256, now)
        times.append(now)
    for i in range(24):
        now = system.read(i * 4096, now)
        times.append(now)
    times.append(system.fence(now))
    return times


def test_observers_set_after_build_reach_every_station():
    bare = _drive(registry.build("vans", migrate_threshold=16))
    system = registry.build("vans", migrate_threshold=16)
    recorder = FlightRecorder()
    checker = PersistenceChecker()
    injector = FaultInjector(FaultPlan(), checker=checker)
    system.hooks.set(recorder, injector)
    assert system.imc.dimms[0].wear.hooks.faults is injector
    assert _drive(system) == bare
    stations = {span.station for record in recorder.records
                for span in record.spans}
    assert {"imc.wpq", "ddrt.link", "dimm.lsq", "dimm.ait", "media",
            "media.wear"} <= stations
    assert injector.requests == 120                       # on_request
    assert sum(map(len, checker._acks.values())) == 96    # note_write
    assert checker._fences == [bare[-1]]                  # note_fence


def test_memory_mode_inner_vans_never_ticks():
    system = registry.build("memory-mode")
    recorder = FlightRecorder()
    sink = _Ticks()
    system.hooks.set(recorder, ticks=[sink])
    inner = system.nvram.hooks
    assert inner.flight is recorder and inner.ticks == ()
    now = 0
    for i in range(20):                 # every read misses to the NVRAM
        now = system.read(i * 4096, now)
    assert system.stats.counter("memmode.misses").value == 20
    assert sink.ticks == 20
    assert len(recorder.records) == 20
    system.hooks.set()
    assert inner.flight is NULL_FLIGHT and not inner.on


def test_hooks_set_keeps_enabled_sinks_only():
    hooks = Hooks()
    assert not hooks.on
    hooks.set(faults=FaultInjector(FaultPlan()))
    assert hooks.on and hooks.ticks == ()
    hooks.set(ticks=[NULL_FLIGHT])       # a disabled sink
    assert not hooks.on and hooks.ticks == ()


def test_build_rejects_observer_overrides():
    for key in ("flight", "faults", "hooks"):
        with pytest.raises(UnknownOverrideError):
            registry.build("vans", **{key: None})
        with pytest.raises(UnknownOverrideError):
            registry.build("memory-mode", **{key: None})
