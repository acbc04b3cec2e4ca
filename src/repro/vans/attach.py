"""Full-system attach interface (the paper's gem5 coupling).

VANS computes completion times analytically; a host simulator works in
callbacks.  ``AttachedMemory`` bridges the two: the host sends a
:class:`~repro.engine.request.Request` and gets its callback fired by
the discrete-event engine at the request's completion time, with
outstanding-request accounting and optional back-pressure.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.errors import SimulationError
from repro.engine.event import Engine
from repro.engine.request import Op, Request
from repro.engine.stats import StatsRegistry
from repro.target import TargetSystem


class AttachedMemory:
    """Event-driven port over any :class:`TargetSystem`.

    Usage from a host simulator::

        engine = Engine()
        port = AttachedMemory(engine, VansSystem())
        port.send(Request(addr=0x1000, op=Op.READ, issue_ps=engine.now),
                  on_complete=lambda req: core.wakeup(req))
        engine.run()
    """

    def __init__(self, engine: Engine, target: TargetSystem,
                 max_outstanding: int = 64,
                 stats: Optional[StatsRegistry] = None) -> None:
        self.engine = engine
        self.target = target
        self.max_outstanding = max_outstanding
        self.stats = stats or StatsRegistry()
        self._outstanding = 0
        self._c_sent = self.stats.counter("attach.requests")
        self._c_rejected = self.stats.counter("attach.rejected")
        self._hist = self.stats.histogram("attach.latency_ps")

    @property
    def outstanding(self) -> int:
        return self._outstanding

    def can_accept(self) -> bool:
        return self._outstanding < self.max_outstanding

    def send(self, request: Request,
             on_complete: Optional[Callable[[Request], None]] = None) -> bool:
        """Issue ``request`` at the engine's current time.

        Returns False (and does nothing) when the port is saturated —
        the host retries later, exactly like a gem5 timing port.  The
        callback fires via the event engine at the completion time.
        """
        if not self.can_accept():
            self._c_rejected.add()
            return False
        if request.issue_ps < self.engine.now:
            raise SimulationError(
                f"request issued in the past ({request.issue_ps} < "
                f"{self.engine.now})")
        self._c_sent.add()
        self._outstanding += 1
        self.target.submit(request)
        self._hist.record(request.latency_ps)

        def _complete() -> None:
            self._outstanding -= 1
            if on_complete is not None:
                on_complete(request)

        self.engine.schedule_at(max(request.complete_ps, self.engine.now),
                                _complete)
        return True

    def issue(self, addr: int, op: Op = Op.READ,
              on_complete: Optional[Callable[[Request], None]] = None) -> bool:
        """Convenience over :meth:`send`: issue a 64B ``op`` request to
        ``addr`` at the engine's current time.  Returns False when the
        port is saturated."""
        return self.send(Request(addr=addr, op=op, issue_ps=self.engine.now),
                         on_complete)

    def send_fence(self, now: Optional[int] = None,
                   on_complete: Optional[Callable[[Request], None]] = None
                   ) -> bool:
        """Convenience: issue a FENCE request."""
        issue = self.engine.now if now is None else now
        return self.send(Request(addr=0, op=Op.FENCE, issue_ps=issue),
                         on_complete)

    @property
    def mean_latency_ps(self) -> float:
        return self._hist.mean
