"""Discrete-event simulation kernel.

One global binary heap of :class:`Event` entries ordered by
``(time, seq)``: callbacks fire in ascending time, FIFO among equal
timestamps (the monotonically increasing sequence number breaks ties),
which keeps every run reproducible.

Cancellation is lazy: a cancelled entry stays queued until it reaches
the head of the heap, but the engine counts them and compacts the heap
once cancelled entries outnumber live ones, so timeout-heavy runs do not
grow without bound.

The only user is the gem5-style attach port
(:class:`repro.vans.attach.AttachedMemory`); the memory models
themselves compute completion times forward with FCFS algebra
(:mod:`repro.engine.queueing`) and never schedule events.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.common.errors import SimulationError

#: compaction runs only once more than this many entries are cancelled
COMPACT_MIN_CANCELLED = 32


class Event:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "live", "_engine")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any],
                 args: tuple, engine: "Engine") -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: True while scheduled and not yet fired
        self.live = True
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the callback from firing (O(1); lazy deletion).

        Cancelling an already-fired (or already-cancelled) handle is a
        no-op.
        """
        if self.cancelled or not self.live:
            return
        self.cancelled = True
        self._engine._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class Engine:
    """Event loop with an integer-picosecond clock."""

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._heap: List[Event] = []
        self._processed = 0
        self._cancelled = 0

    @property
    def now(self) -> int:
        """Current simulated time in picoseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of callbacks executed so far."""
        return self._processed

    def pending(self) -> int:
        """Number of not-yet-fired (possibly cancelled) events."""
        return len(self._heap)

    def _note_cancel(self) -> None:
        self._cancelled += 1
        if (self._cancelled > COMPACT_MIN_CANCELLED
                and self._cancelled * 2 > len(self._heap)):
            self.compact()

    def compact(self) -> int:
        """Drop cancelled entries from the heap; returns entries removed."""
        heap = self._heap
        before = len(heap)
        heap[:] = [e for e in heap if not e.cancelled]
        heapq.heapify(heap)
        self._cancelled = 0
        return before - len(heap)

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {self._now}"
            )
        self._seq += 1
        event = Event(time, self._seq, fn, args, self)
        heapq.heappush(self._heap, event)
        return event

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` picoseconds."""
        return self.schedule_at(self._now + delay, fn, *args)

    def _next(self, until: Optional[int]) -> Optional[Event]:
        """Pop the next live event at or before ``until`` (any time when
        ``until`` is None); None when there is none."""
        heap = self._heap
        while heap:
            if until is not None and heap[0].time > until:
                return None
            event = heapq.heappop(heap)
            if not event.cancelled:
                return event
            self._cancelled -= 1
        return None

    def _fire(self, event: Event) -> None:
        self._now = event.time
        event.live = False
        event.fn(*event.args)
        self._processed += 1

    def run(self, until: Optional[int] = None) -> int:
        """Run events until the heap drains or the next one lies past
        ``until``; returns the final time.

        With ``until`` the clock ends at ``until`` even when the last
        event fired earlier.  An ``until`` before :attr:`now` raises,
        as :meth:`advance` does.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until}: before now {self._now}")
        event = self._next(until)
        while event is not None:
            self._fire(event)
            event = self._next(until)
        if until is not None:
            self._now = until
        return self._now

    def step(self) -> Optional[Tuple[int, Callable[..., Any]]]:
        """Fire exactly one (non-cancelled) event; return (time, fn) or None."""
        event = self._next(None)
        if event is None:
            return None
        self._fire(event)
        return (event.time, event.fn)

    def advance(self, time: int) -> None:
        """Move the clock forward without firing events (idle time)."""
        if time < self._now:
            raise SimulationError(f"cannot move time backwards to {time}")
        self._now = time
