"""Simulation kernel.

Two complementary timing facilities live here:

* :class:`~repro.engine.event.Engine` — the discrete-event kernel
  (integer-picosecond clock, one binary heap) behind the gem5-style
  attach port :class:`~repro.vans.attach.AttachedMemory`, which fires a
  host's callback at each request's completion time.  No experiment
  schedules events.
* :mod:`repro.engine.queueing` — FCFS queueing algebra
  (:class:`FcfsStation`, :class:`Server`, :class:`BankedServer`).  The
  paper reports that Optane DIMMs schedule first-come-first-serve
  internally; under FCFS, each stage's completion time is
  ``max(arrival, stage_free) + service``, so the whole DIMM pipeline can
  be computed forward exactly without per-cycle ticking.  This is what
  makes a cycle-resolution model fast enough in pure Python.

The package re-exports nothing: import each name from the module that
defines it.
"""
