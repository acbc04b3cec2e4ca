"""The ``TargetSystem`` interface LENS drives.

The paper runs LENS against a physical Optane server; here LENS drives
anything implementing this protocol: the VANS simulator, the baseline
emulators/simulators, or the digitized Optane reference model.  All
methods deal in absolute simulated time (integer picoseconds) so a
harness can thread a clock through a request stream.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.engine.request import CACHE_LINE, Op, Request
from repro.hooks import Hooks


class TargetSystem(ABC):
    """A memory system under test."""

    #: short identifier used in reports
    name: str = "target"

    def __init__(self, hooks: Optional[Hooks] = None) -> None:
        #: the system's observers (flight recorder, fault injector,
        #: telemetry/progress tick sinks), shared with every station it
        #: builds; the registry attaches a session's observers here
        self.hooks = hooks if hooks is not None else Hooks()

    def profile_points(self):
        """Host-profiler attribution points: ``(key, owner, method)``.

        The host profiler wraps ``getattr(owner, method)`` instance-side
        for the session, over the class methods unprofiled runs execute;
        composite systems override this to also yield their internal
        station callsites (iMC, DIMM, media, ...).
        Owners without a ``__dict__`` (slotted stations) are skipped by
        the profiler — their time lands in the enclosing component's
        key.
        """
        label = self.name
        yield (f"{label}.read", self, "read")
        yield (f"{label}.write", self, "write")
        yield (f"{label}.fence", self, "fence")

    @abstractmethod
    def read(self, addr: int, now: int) -> int:
        """64B read issued at ``now``; returns the data-return time."""

    @abstractmethod
    def write(self, addr: int, now: int) -> int:
        """64B nt-store issued at ``now``; returns its accept time
        (persistence point for NVRAM systems)."""

    def fence(self, now: int) -> int:
        """Drain the persistence path; returns the drain-complete time.

        Systems with no buffered persistence (plain DRAM models) complete
        immediately.
        """
        return now

    def submit(self, request: Request) -> Request:
        """Execute one :class:`Request`, filling its timestamps.

        When a flight recorder is attached and samples this request, the
        resulting :class:`~repro.flight.FlightRecord` (tagged with the
        request id and exact op name) is hung on ``request.flight``.
        The tick sinks see the request once, from ``read``/``write``/
        ``fence``.
        """
        h = self.hooks
        if h.on:
            h.flight.begin(request.op.name.lower(), request.addr,
                           request.size, issue_ps=request.issue_ps,
                           req_id=request.req_id)
        if request.op is Op.FENCE:
            request.accept_ps = request.issue_ps
            request.complete_ps = self.fence(request.issue_ps)
        elif request.op.is_write:
            request.accept_ps = self.write(request.addr, request.issue_ps)
            request.complete_ps = request.accept_ps
        else:
            request.accept_ps = request.issue_ps
            request.complete_ps = self.read(request.addr, request.issue_ps)
        if h.on:
            fl = h.flight
            fl.end(request.complete_ps)
            record = fl.last
            if record is not None and record.req_id == request.req_id:
                request.flight = record
        return request

    def warm_fill(self, start_addr: int, length: int) -> None:
        """Optional fast-forward warm-up of internal buffer state."""

    def instrument_snapshot(self) -> dict:
        """Flat observability snapshot (``dotted.path -> number``).

        The default pulls the system's :class:`StatsRegistry` when it has
        one; systems wired to an instrument bus override this to merge in
        their gauges as well.
        """
        stats = getattr(self, "stats", None)
        return dict(stats.snapshot()) if stats is not None else {}

    def stat_registries(self) -> list:
        """Every :class:`StatsRegistry` the telemetry sampler should read.

        Composite systems whose inner components keep their own registry
        (e.g. Memory-mode wrapping an NVRAM backend) override this so the
        sampler sees all of them.
        """
        stats = getattr(self, "stats", None)
        return [stats] if stats is not None else []

    def reset_state(self) -> None:
        """Optional: drop all internal state between experiment phases."""

    def line_span(self, start_addr: int, length: int):
        """Iterate the 64B line addresses covering a byte range."""
        addr = start_addr - (start_addr % CACHE_LINE)
        end = start_addr + length
        while addr < end:
            yield addr
            addr += CACHE_LINE
