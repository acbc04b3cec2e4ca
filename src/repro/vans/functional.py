"""Functional (data-carrying) layer over the timing simulator.

VANS proper is a timing model: buffers track tags, not bytes.  When the
simulator is attached to a full-system host (the paper attaches it to
gem5), the host also needs *data* — and data movement is where
persistence bugs hide.  ``FunctionalMemory`` adds a byte store with the
App Direct visibility/persistence semantics the paper describes:

* a *cached* store is volatile until ``clwb``-flushed;
* an nt store (or a flushed line) is *pending*: it sits in CPU
  write-combining buffers until a fence pushes it into the ADR-protected
  WPQ.  On power failure a pending line **may or may not** have reached
  the ADR domain — exactly the uncertainty persistent-memory crash
  consistency protocols must survive;
* after a fence, everything previously pending is durable (the paper's
  "data reaching the ADR domain is persisted during power outage").

``crash()`` models the power failure: volatile state is lost, durable
state survives, and each pending line independently persists or not
(deterministically under a seed, or forced with a policy) — which is
what lets the :mod:`repro.pmlib` recovery tests enumerate real partial-
persistence interleavings.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.rng import make_rng
from repro.common.units import align_down
from repro.engine.request import CACHE_LINE
from repro.target import TargetSystem
from repro.vans.system import VansSystem


class FunctionalMemory(TargetSystem):
    """VansSystem plus an actual byte store with persistence semantics.

    Values are per-64B-line Python objects (tests typically use ints).
    """

    def __init__(self, timing: Optional[VansSystem] = None) -> None:
        super().__init__()
        self.timing = timing or VansSystem()
        self.name = f"functional-{self.timing.name}"
        #: durable contents (ADR domain and below — survives a crash)
        self._persistent: Dict[int, object] = {}
        #: flushed/nt data not yet fenced (persists *maybe* on a crash)
        self._pending: Dict[int, object] = {}
        #: CPU-cache-resident dirty values (always lost on a crash)
        self._volatile: Dict[int, object] = {}

    @staticmethod
    def _line(addr: int) -> int:
        return align_down(addr, CACHE_LINE)

    # -- data + timing ----------------------------------------------------

    def load(self, addr: int, now: int):
        """Returns (value, completion_time); newest value wins."""
        line = self._line(addr)
        value = self._volatile.get(
            line, self._pending.get(line, self._persistent.get(line)))
        done = self.timing.read(addr, now)
        return value, done

    def store(self, addr: int, value, now: int, nt: bool = True) -> int:
        """Store ``value``.  nt stores become *pending* at their accept
        time (durable only after a fence); cached stores stay volatile
        until :meth:`flush_line`."""
        line = self._line(addr)
        if nt:
            accept = self.timing.write(addr, now)
            self._pending[line] = value
            self._volatile.pop(line, None)
            return accept
        self._volatile[line] = value
        return now

    def flush_line(self, addr: int, now: int) -> int:
        """clwb: push a cached dirty line into the pending set."""
        line = self._line(addr)
        if line in self._volatile:
            accept = self.timing.write(addr, now)
            self._pending[line] = self._volatile.pop(line)
            return accept
        return now

    def fence(self, now: int) -> int:
        """sfence: everything pending becomes durable."""
        self._persistent.update(self._pending)
        self._pending.clear()
        return self.timing.fence(now)

    # -- TargetSystem timing-only compatibility ----------------------------

    def read(self, addr: int, now: int) -> int:
        return self.timing.read(addr, now)

    def write(self, addr: int, now: int) -> int:
        return self.timing.write(addr, now)

    # -- persistence contract ----------------------------------------------

    def crash(self, pending_policy: str = "random", seed: int = 0) -> None:
        """Power failure.

        ``pending_policy`` controls un-fenced lines: ``"random"`` — each
        independently persists or not (seeded); ``"keep"`` / ``"drop"``
        — force the extremes (useful to enumerate adversarial
        interleavings in tests).
        """
        if pending_policy == "keep":
            self._persistent.update(self._pending)
        elif pending_policy == "random":
            rng = make_rng(seed, "crash")
            for line, value in self._pending.items():
                if rng.random() < 0.5:
                    self._persistent[line] = value
        elif pending_policy != "drop":
            raise ValueError(f"unknown pending_policy {pending_policy!r}")
        self._pending.clear()
        self._volatile.clear()
        self.timing.reset_state()

    def persisted_value(self, addr: int):
        """What recovery would read for this line."""
        return self._persistent.get(self._line(addr))

    @property
    def dirty_volatile_lines(self) -> int:
        return len(self._volatile)

    @property
    def pending_lines(self) -> int:
        return len(self._pending)
