"""The per-request flight recorder.

A system's :class:`~repro.engine.stats.StatsRegistry` answers *how
much* — aggregate counters and gauges over a whole run.  The flight recorder
answers *where did this request's time go*: every station a request
crosses (iMC queues, the DDR-T link, the DIMM LSQ, the RMW buffer, AIT
translation, wear-leveling, 3D-XPoint media) records a span with
simulated-picosecond timestamps onto the request currently in flight.

Wiring:

* :data:`NULL_FLIGHT` is the no-op default in every system's
  :class:`~repro.hooks.Hooks` bundle, which the system shares with its
  stations; a station records behind the bundle's one ``hooks.on``
  check per hook point and calls the recorder unconditionally past it;
* a real :class:`FlightRecorder` is *enabled* always but *active* only
  while the current request was selected by the sampling policy
  (record-all, 1-in-N, or reservoir), so a sampled run pays recording
  cost only on the sampled fraction — :meth:`FlightRecorder.span` and
  :meth:`~FlightRecorder.instant` return at once when it is inactive;
* recorders nest: a wrapper system (Memory Mode, ``TargetSystem.submit``,
  the CPU miss path) may ``begin`` a request that internally issues more
  ``begin``/``end`` pairs — only the outermost pair delimits the record,
  inner spans accrue to it.

Everything recorded is simulated time; no wall-clock value ever enters a
record, so flight-recorded runs stay bit-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.common.session import SessionStack

#: sampling policies understood by :class:`FlightRecorder`
MODES = ("all", "every", "reservoir")


@dataclass
class SpanEvent:
    """One station crossing: ``[start_ps, end_ps)`` at ``station``.

    ``phase`` distinguishes what the station was doing ("wait" in a full
    queue vs "service"); ``detail`` carries small structured annotations
    (channel index, media partition, hit/miss) that end up in the
    exported trace's ``args``.
    """

    __slots__ = ("station", "phase", "start_ps", "end_ps", "detail")

    station: str
    phase: str
    start_ps: int
    end_ps: int
    detail: Optional[Dict[str, object]]

    @property
    def duration_ps(self) -> int:
        return self.end_ps - self.start_ps


@dataclass
class InstantEvent:
    """A zero-duration marker (e.g. a Lazy-cache eviction)."""

    __slots__ = ("station", "name", "ts_ps", "detail")

    station: str
    name: str
    ts_ps: int
    detail: Optional[Dict[str, object]]


@dataclass
class FlightRecord:
    """Everything recorded about one memory request."""

    op: str
    addr: int
    size: int
    issue_ps: int
    complete_ps: int = 0
    req_id: Optional[int] = None
    spans: List[SpanEvent] = field(default_factory=list)
    instants: List[InstantEvent] = field(default_factory=list)

    @property
    def latency_ps(self) -> int:
        return self.complete_ps - self.issue_ps


class NullFlightRecorder:
    """No-op recorder: the default in every system's hooks."""

    __slots__ = ()

    enabled = False
    active = False

    def begin(self, op: str, addr: int, size: int = 64, issue_ps: int = 0,
              req_id: Optional[int] = None) -> None:
        pass

    def span(self, station: str, start_ps: int, end_ps: int,
             phase: str = "service", **detail) -> None:
        pass

    def instant(self, station: str, name: str, ts_ps: int, **detail) -> None:
        pass

    def end(self, complete_ps: int) -> None:
        pass

    def amend(self, station: str, start_ps: int, end_ps: int,
              phase: str = "service", **detail) -> None:
        pass

    @property
    def last(self) -> Optional[FlightRecord]:
        return None


#: shared no-op recorder; holds no state, safe to pass around.
NULL_FLIGHT = NullFlightRecorder()


class FlightRecorder:
    """Samples requests and records their station-crossing spans.

    Args:
        mode: ``"all"`` records every request; ``"every"`` records one
            request in ``every``; ``"reservoir"`` keeps a uniform random
            sample of ``capacity`` requests (deterministic, seeded).
        every: the N of 1-in-N sampling (``mode="every"``).
        capacity: reservoir size (``mode="reservoir"``).
        seed: reservoir RNG seed (ignored by the other modes).
    """

    enabled = True

    def __init__(self, mode: str = "all", every: int = 1,
                 capacity: int = 4096, seed: int = 0) -> None:
        if mode not in MODES:
            raise ConfigError(
                f"unknown flight sampling mode {mode!r}; expected one of {MODES}")
        if mode == "every" and every < 1:
            raise ConfigError(f"sampling interval must be >= 1, got {every}")
        if mode == "reservoir" and capacity < 1:
            raise ConfigError(f"reservoir capacity must be >= 1, got {capacity}")
        self.mode = mode
        self.every = every
        self.capacity = capacity
        self.records: List[FlightRecord] = []
        #: requests begun (depth-0) since construction
        self.seen = 0
        #: sampled-out requests (never recorded or reservoir-evicted)
        self.dropped = 0
        self.active = False
        self._rng = make_rng(seed, "flight-reservoir")
        self._current: Optional[FlightRecord] = None
        self._depth = 0

    # -- request lifecycle ---------------------------------------------

    def begin(self, op: str, addr: int, size: int = 64, issue_ps: int = 0,
              req_id: Optional[int] = None) -> None:
        """Open a request.  Nested calls (wrapper systems forwarding to
        inner ones) fold into the outermost open request."""
        self._depth += 1
        if self._depth > 1:
            return
        self.seen += 1
        if self.mode == "every" and (self.seen - 1) % self.every:
            self.dropped += 1
            return
        self._current = FlightRecord(op=op, addr=addr, size=size,
                                     issue_ps=issue_ps, req_id=req_id)
        self.active = True

    def span(self, station: str, start_ps: int, end_ps: int,
             phase: str = "service", **detail) -> None:
        """Record one station crossing of the current request.

        Zero/negative-length spans are dropped — a station that did not
        hold the request contributes nothing to its latency.
        """
        if not self.active or end_ps <= start_ps:
            return
        self._current.spans.append(
            SpanEvent(station, phase, start_ps, end_ps, detail or None))

    def instant(self, station: str, name: str, ts_ps: int, **detail) -> None:
        """Record a zero-duration marker on the current request."""
        if not self.active:
            return
        self._current.instants.append(
            InstantEvent(station, name, ts_ps, detail or None))

    def end(self, complete_ps: int) -> None:
        """Close the innermost ``begin``; the outermost close files the
        record according to the sampling policy."""
        if self._depth == 0:
            return
        self._depth -= 1
        if self._depth > 0:
            return
        record, self._current = self._current, None
        self.active = False
        if record is None:
            return
        record.complete_ps = complete_ps
        if self.mode == "reservoir" and len(self.records) >= self.capacity:
            slot = self._rng.randrange(self.seen)
            if slot < self.capacity:
                self.dropped += 1
                self.records[slot] = record
            else:
                self.dropped += 1
            return
        self.records.append(record)

    def amend(self, station: str, start_ps: int, end_ps: int,
              phase: str = "service", **detail) -> None:
        """Append a span to the most recently *completed* record.

        Used by callers that only learn a duration after the request
        closed — e.g. the CPU model wrapping a backend access.
        """
        if not self.records or end_ps <= start_ps:
            return
        self.records[-1].spans.append(
            SpanEvent(station, phase, start_ps, end_ps, detail or None))

    # -- reading -------------------------------------------------------

    @property
    def last(self) -> Optional[FlightRecord]:
        """The most recently completed record, if any survived sampling."""
        return self.records[-1] if self.records else None

    def sampling_summary(self) -> Dict[str, object]:
        """Self-describing sampling metadata for reports/exports."""
        return {
            "mode": self.mode,
            "every": self.every,
            "capacity": self.capacity,
            "seen": self.seen,
            "kept": len(self.records),
            "dropped": self.dropped,
        }


# ----------------------------------------------------------------------
# session: ``session(recorder)`` attaches the recorder to every system
# the target registry builds while active (``None`` is a no-op context)
# ----------------------------------------------------------------------

_SESSIONS = SessionStack(NULL_FLIGHT)
current = _SESSIONS.current
session = _SESSIONS.session
