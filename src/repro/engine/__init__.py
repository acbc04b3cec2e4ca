"""Simulation kernel.

Two complementary timing facilities live here:

* :class:`~repro.engine.event.Engine` — the discrete-event kernel
  (integer-picosecond clock) used by the CPU full-system model and any
  component that needs callbacks at future times.  Its fast path is a
  bucketed :class:`~repro.engine.calendar.CalendarQueue` with pooled
  :class:`~repro.engine.event.Event` objects and two run loops (a tight
  one for unbounded, unprofiled runs, the legacy per-event one
  otherwise); :class:`~repro.engine.event.LegacyEngine` keeps the seed
  binary-heap kernel for determinism cross-checks and as the reference
  ``repro-bench --suite kernel`` measures against.
* :mod:`repro.engine.queueing` — FCFS queueing algebra
  (:class:`FcfsStation`, :class:`Server`, :class:`BankedServer`).  The
  paper reports that Optane DIMMs schedule first-come-first-serve
  internally; under FCFS, each stage's completion time is
  ``max(arrival, stage_free) + service``, so the whole DIMM pipeline can
  be computed forward exactly without per-cycle ticking.  This is what
  makes a cycle-resolution model fast enough in pure Python.
"""

from repro.engine.calendar import CalendarQueue
from repro.engine.event import Engine, Event, LegacyEngine
from repro.engine.queueing import FcfsStation, Server, BankedServer
from repro.engine.request import Op, Request, RequestPool
from repro.engine.stats import Counter, Histogram, LatencySeries, StatsRegistry

__all__ = [
    "CalendarQueue",
    "Engine",
    "Event",
    "LegacyEngine",
    "RequestPool",
    "FcfsStation",
    "Server",
    "BankedServer",
    "Op",
    "Request",
    "Counter",
    "Histogram",
    "LatencySeries",
    "StatsRegistry",
]
