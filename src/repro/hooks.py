"""One observer bundle per built system.

Three kinds of observer watch the stations a request crosses: the
flight recorder (spans per request), the fault injector (latency and
trigger hooks plus the persistence history) and the tick sinks (the
telemetry sampler and the progress reporter, fed every completed
request's simulated time).  A :class:`Hooks` bundle holds all three for
one system; the system shares the one object with every station it
builds (iMC, DDR-T channels, DIMMs, media, wear leveler, Lazy cache),
so attaching or detaching an observer after the build is one
:meth:`Hooks.set` call and reaches every station.

Each hook point tests one slot, ``hooks.on``, and then calls the
observers unconditionally: the null recorder and null injector do
nothing, and :meth:`FlightRecorder.span` / ``instant`` check ``active``
themselves.  ``on`` is an instance slot, so the uninstrumented path
pays one slot load and a branch per hook point.
"""

from __future__ import annotations

from typing import Iterable

from repro.faults.injector import NULL_FAULTS
from repro.flight.recorder import NULL_FLIGHT


class Hooks:
    """The flight recorder, fault injector and tick sinks of a system."""

    __slots__ = ("on", "flight", "faults", "ticks", "_inner")

    def __init__(self) -> None:
        self.on = False
        self.flight = NULL_FLIGHT
        self.faults = NULL_FAULTS
        self.ticks: tuple = ()
        #: bundles of systems built inside this one (see :meth:`nested`)
        self._inner: tuple = ()

    def set(self, flight=NULL_FLIGHT, faults=NULL_FAULTS,
            ticks: Iterable = ()) -> None:
        """Attach these observers (the defaults detach everything).

        Only enabled tick sinks are kept, in the order given: the
        registry passes the telemetry sampler before the progress
        reporter.
        """
        self.flight = flight
        self.faults = faults
        self.ticks = tuple(sink for sink in ticks if sink.enabled)
        self.on = bool(flight.enabled or faults.enabled or self.ticks)
        for inner in self._inner:
            inner.set(flight, faults)

    def tick(self, now: int) -> None:
        """One completed request at simulated time ``now``."""
        for sink in self.ticks:
            sink.tick(now)

    def nested(self) -> "Hooks":
        """A bundle for a system built inside this one's system.

        It follows this bundle's recorder and injector through every
        later :meth:`set` but never ticks, so each request ticks once,
        at the outermost system.
        """
        inner = Hooks()
        inner.set(self.flight, self.faults)
        self._inner += (inner,)
        return inner
