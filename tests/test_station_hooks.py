"""Hook contract over every registry target.

Each station has one implementation per request method and tests one
slot, ``hooks.on``, of its system's shared :class:`~repro.hooks.Hooks`
bundle per hook point.  Two properties follow and are checked here for
every system target:

* attaching hooks never perturbs simulated time — a mixed
  read/write/write_nt/fence stream completes at identical times bare and
  under flight + telemetry + empty-fault-plan sessions;
* a hook set after the system was built is honoured — nothing fixes a
  method binding at build time.
"""

from __future__ import annotations

import pytest

from repro import registry
from repro.faults import FaultInjector, FaultPlan
from repro.faults import session as faults_session
from repro.faults.persistence import PersistenceChecker
from repro.flight import FlightRecorder
from repro.flight import session as flight_session
from repro.telemetry import TelemetrySampler
from repro.telemetry import session as telemetry_session

TARGETS = [pytest.param(name, {}, id=name)
           for name in registry.target_names(systems_only=True)] + [
    pytest.param("vans", {"lazy_cache": True}, id="vans-lazy-cache"),
]

#: (op, addr) pairs: repeated lines (buffer/cache hits), a 4 KiB stride
#: (AIT/RMW misses) and fences between the write bursts
STREAM = [(op, addr)
          for rep in range(3)
          for op, addr in (
              [("read", i * 64) for i in range(8)]
              + [("write", (i % 4) * 4096) for i in range(8)]
              + [("fence", 0)]
              + [("write_nt", rep * 256 + i * 64) for i in range(6)]
              + [("read", i * 4096) for i in range(6)]
              + [("fence", 0)])]


def _drive(system, stream=STREAM):
    """Chain ``stream`` through ``system``; returns every completion."""
    ops = {"read": system.read, "write": system.write,
           "write_nt": getattr(system, "write_nt", None) or system.write}
    now = 0
    times = []
    for op, addr in stream:
        now = system.fence(now) if op == "fence" else ops[op](addr, now)
        times.append(now)
    return times


class _CountingTelemetry:
    """Telemetry stand-in that only counts ticks."""

    enabled = True

    def __init__(self) -> None:
        self.ticks = 0

    def tick(self, now_ps: int) -> None:
        self.ticks += 1


@pytest.mark.parametrize("name,overrides", TARGETS)
def test_hooks_never_perturb_timing(name, overrides):
    bare = _drive(registry.build(name, **overrides))
    recorder = FlightRecorder()
    sampler = TelemetrySampler()
    injector = FaultInjector(FaultPlan(), checker=PersistenceChecker())
    with flight_session(recorder), telemetry_session(sampler), \
            faults_session(injector):
        system = registry.build(name, **overrides)
        assert system.hooks.flight is recorder
        assert system.hooks.ticks == (sampler,)
        assert system.hooks.faults is injector
        hooked = _drive(system)
    assert hooked == bare
    assert injector.requests > 0


@pytest.mark.parametrize("name,overrides", TARGETS)
def test_telemetry_assigned_after_build_ticks_per_request(name, overrides):
    system = registry.build(name, **overrides)
    telemetry = _CountingTelemetry()
    system.hooks.set(ticks=[telemetry])
    stream = [(op, addr) for op, addr in STREAM if op != "fence"]
    _drive(system, stream)
    assert telemetry.ticks == len(stream)
