"""Sim-time-driven progress reporting for long-running simulations.

The telemetry sampler (:mod:`repro.telemetry.sampler`) records *what
happened* onto a timeline that rides on the terminal result; this module
answers the operational question a live client has while the run is
still going: *is it moving, and how far along is it?*

A :class:`ProgressReporter` receives the same simulated-time ticks the
telemetry sampler does (every completed request on a
:class:`~repro.target.TargetSystem` reports its completion time) and
periodically emits a compact JSON-safe *frame* through a caller-supplied
``emit`` callback::

    {"done_requests": 4096, "sim_time_ns": 812343, "phase": "fig1",
     "frame": 3, "telemetry": {...small live snapshot...}}

Frames are **advisory**: they never enter a result payload, so a run
with a reporter attached stays byte-identical to one without (the same
contract ``NULL_BUS`` / ``NULL_FLIGHT`` / ``NULL_TELEMETRY`` make).
Emission is throttled twice — frames are *due* when the simulated clock
crosses an ``interval_ps`` boundary, and actually *sent* at most once
per ``min_wall_s`` of wall time — so a fast simulation cannot flood the
worker pipe.  Phase changes and :meth:`finalize` always emit, which
guarantees every reported run produces at least two frames (the
phase-open frame and the terminal one).

Design mirrors the other zero-cost hooks exactly:

* :data:`NULL_PROGRESS` is the shared no-op default (``enabled`` is a
  class attribute ``False``);
* :func:`session` installs a live reporter; the target registry routes
  sim-time ticks from every system it builds to the innermost active
  reporter (tee'ing with the telemetry sampler when both are active);
* the serve worker pool constructs a reporter per job whose ``emit``
  ships frames over the existing worker pipe
  (:mod:`repro.serve.pool`), relayed to the owning client connection.
"""

from __future__ import annotations

import time
from operator import methodcaller
from typing import Callable, Dict, List

from repro.common.session import SessionStack

#: default simulated interval between due frames: 100 us of sim time
DEFAULT_INTERVAL_PS = 100_000_000

#: default wall-clock floor between emitted frames (seconds)
DEFAULT_MIN_WALL_S = 0.1

#: instrumentation snapshot keys per frame are capped so a frame stays a
#: few KiB even on heavily instrumented systems (frames are advisory;
#: the full snapshot still rides on the terminal result)
SNAPSHOT_KEY_CAP = 64


class NullProgress:
    """No-op reporter: the zero-cost default on every session."""

    __slots__ = ()

    enabled = False

    def attach(self, system: object) -> None:
        pass

    def tick(self, now_ps: int) -> None:
        pass

    def phase(self, name: str) -> None:
        pass

    def finalize(self) -> None:
        pass


#: shared no-op reporter; holds no state, safe to pass around.
NULL_PROGRESS = NullProgress()


class ProgressReporter:
    """Emits progress frames from simulated-time ticks.

    Args:
        emit: called with one JSON-safe frame dict per emission; must be
            cheap and must never raise into the simulation (exceptions
            are swallowed — progress is advisory).
        interval_ps: simulated picoseconds between *due* frames.
        min_wall_s: wall-clock floor between *emitted* frames; phase
            changes and the final frame bypass it.
        clock: wall-clock source (injectable for deterministic tests).
    """

    enabled = True

    def __init__(self, emit: Callable[[Dict[str, object]], None],
                 interval_ps: int = DEFAULT_INTERVAL_PS,
                 min_wall_s: float = DEFAULT_MIN_WALL_S,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._emit = emit
        self.interval_ps = max(1, int(interval_ps))
        self.min_wall_s = float(min_wall_s)
        self._clock = clock
        self._systems: List[object] = []
        self._phase = ""
        self.done_requests = 0
        self.frames = 0
        # run clock: concatenates per-system sim-clock domains, exactly
        # like the telemetry sampler, so sweep harnesses that rebuild a
        # fresh system per point report monotone progress.
        self._base = 0
        self._domain_max = 0
        self._next_due = self.interval_ps
        self._last_wall = float("-inf")

    # -- wiring ----------------------------------------------------------

    def attach(self, system: object) -> None:
        """Include ``system``'s snapshot in frames; folds the previous
        sim-clock domain into the monotone run clock (registry calls
        this for every system built under an active session)."""
        if not any(existing is system for existing in self._systems):
            self._systems.append(system)
            if self._domain_max > 0:
                self._base += self._domain_max
                self._domain_max = 0

    # -- ticking ---------------------------------------------------------

    def tick(self, now_ps: int) -> None:
        """One completed request at simulated time ``now_ps``."""
        self.done_requests += 1
        if now_ps > self._domain_max:
            self._domain_max = now_ps
        t = self._base + self._domain_max
        if t < self._next_due:
            return
        self._next_due = (t // self.interval_ps + 1) * self.interval_ps
        wall = self._clock()
        if wall - self._last_wall < self.min_wall_s:
            return
        self._send(t, wall)

    def phase(self, name: str) -> None:
        """Mark a phase transition; always emits a frame."""
        self._phase = str(name)
        self._send(self._base + self._domain_max, self._clock())

    def finalize(self) -> None:
        """Emit the terminal frame (session exit calls this)."""
        self._send(self._base + self._domain_max, self._clock())

    # -- frames ----------------------------------------------------------

    @property
    def sim_time_ns(self) -> int:
        """Monotone run-clock position in simulated nanoseconds."""
        return (self._base + self._domain_max) // 1000

    def _snapshot(self) -> Dict[str, object]:
        """Small live view of the attached systems' instrumentation.

        Key count is capped (:data:`SNAPSHOT_KEY_CAP`, insertion order —
        the stable stats-registry counters come first on every system);
        a system whose snapshot raises is skipped, never fatal.
        """
        merged: Dict[str, object] = {}
        for system in self._systems:
            snapshot_of = getattr(system, "instrument_snapshot", None)
            if snapshot_of is None:
                continue
            try:
                snap = snapshot_of()
            except Exception:
                continue
            for path, value in snap.items():
                if isinstance(value, bool) or not isinstance(
                        value, (int, float)):
                    continue
                if len(merged) >= SNAPSHOT_KEY_CAP and path not in merged:
                    continue
                merged[path] = merged.get(path, 0) + value
        merged["systems"] = len(self._systems)
        return merged

    def frame(self) -> Dict[str, object]:
        """The current frame document (also what ``emit`` receives)."""
        return {
            "done_requests": self.done_requests,
            "sim_time_ns": self.sim_time_ns,
            "phase": self._phase,
            "frame": self.frames,
            "telemetry": self._snapshot(),
        }

    def _send(self, t_ps: int, wall: float) -> None:
        self._last_wall = wall
        self.frames += 1
        try:
            self._emit(self.frame())
        except Exception:
            # advisory channel: a broken pipe or serialization hiccup
            # must never take the simulation down with it
            pass


class TelemetryFanout:
    """Duck-typed telemetry sink forwarding ticks to several receivers.

    Installed instance-side as ``system.telemetry`` when a progress
    session and a telemetry session are active at once: the sampler sees
    the identical tick sequence it would have seen alone (timelines stay
    bit-identical), and the reporter rides along.
    """

    __slots__ = ("_sinks",)

    enabled = True

    def __init__(self, *sinks: object) -> None:
        self._sinks = tuple(s for s in sinks if getattr(s, "enabled", False))

    def tick(self, now_ps: int) -> None:
        for sink in self._sinks:
            sink.tick(now_ps)

    def attach(self, system: object) -> None:
        for sink in self._sinks:
            sink.attach(system)

    def finalize(self) -> None:
        for sink in self._sinks:
            sink.finalize()


# ----------------------------------------------------------------------
# session: ``session(reporter)`` attaches the reporter to every system
# the target registry builds while active and emits the terminal frame
# on exit (``None`` is a no-op context)
# ----------------------------------------------------------------------

_SESSIONS = SessionStack(NULL_PROGRESS, on_exit=methodcaller("finalize"))
current = _SESSIONS.current
session = _SESSIONS.session
