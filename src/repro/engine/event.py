"""Discrete-event simulation kernel.

Two kernels share one API and one :class:`Event` handle type:

* :class:`Engine` — the fast path.  Pending events live in a bucketed
  :class:`~repro.engine.calendar.CalendarQueue` (int-compared bucket
  heap, lazy per-bucket sorting, far-future heap fallback), fired
  ``Event`` objects are recycled through a free-list pool, cancelled
  events are compacted away once they outnumber the live queue, and
  :meth:`Engine.run` picks one of two run loops: a tight locals-bound
  loop with batched same-timestamp dispatch for an unbounded run with
  no profiler attached, and the legacy per-event loop otherwise (the
  ``until``/``max_events`` bounds, or a host profiler timing each
  callback).  The choice is re-made only when ``profiler`` is
  (de)attached — never per event.
* :class:`LegacyEngine` — the seed kernel: one global binary heap of
  ``(time, seq, callback)`` entries.  Kept as the reference for the
  determinism cross-checks in ``tests/test_kernel_calendar.py`` and as
  the comparison side of ``repro-bench --suite kernel``.

Both kernels fire callbacks in exactly the same order: ascending time,
FIFO among equal timestamps (the monotonically increasing sequence
number breaks ties), which keeps every experiment reproducible and
makes the two kernels bit-identical in observable behaviour.

Pooled-handle contract: an :class:`Event` returned by ``schedule_at``
is a live handle until its callback fires or it is cancelled.  After
that the engine may recycle the object for a later ``schedule_at``;
calling :meth:`Event.cancel` on a fired handle is a safe no-op, but
holding a handle past its firing and cancelling it *after* the pool
reused it would cancel the new occupant — don't keep fired handles.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.engine.calendar import CalendarQueue

#: recycled-Event free-list bound (events beyond this are left to GC)
EVENT_POOL_CAP = 4096

#: legacy-heap compaction floor (mirrors CalendarQueue's threshold)
COMPACT_MIN_CANCELLED = 32

#: every live Engine, for process-wide kernel-health aggregation
#: (serve workers ship :func:`aggregate_kernel_stats` to the daemon)
_ENGINES: "weakref.WeakSet[Engine]" = weakref.WeakSet()


def _handler_key(fn: Callable[..., Any]) -> str:
    """Stable attribution key for an event callback.

    ``handler.`` plus the callback's qualname with closure noise
    stripped, e.g. ``AttachedMemory.send.<locals>._complete`` becomes
    ``handler.AttachedMemory.send._complete``.
    """
    target = getattr(fn, "__func__", fn)
    qual = getattr(target, "__qualname__", None)
    if qual is None:
        qual = type(fn).__name__
    return "handler." + qual.replace(".<locals>", "")


def _handler_code(fn: Callable[..., Any]) -> Any:
    """Cache key for :func:`_handler_key` (code object when available,
    so every instance of one closure shares a single dict entry)."""
    target = getattr(fn, "__func__", fn)
    return getattr(target, "__code__", None) or target


class Event:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "live", "_engine")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: True while scheduled and not yet fired/recycled
        self.live = True
        #: owning engine (None for free-standing events, e.g. in tests)
        self._engine: Optional[Any] = None

    def cancel(self) -> None:
        """Prevent the callback from firing (O(1); lazy deletion).

        The entry stays queued but is counted: once cancelled entries
        outnumber live ones the owning engine compacts them away, so
        timeout-heavy runs no longer grow without bound.  Cancelling an
        already-fired (or already-cancelled) handle is a no-op.
        """
        if self.cancelled or not self.live:
            return
        self.cancelled = True
        engine = self._engine
        if engine is not None:
            engine._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class Engine:
    """Event loop with an integer-picosecond clock (calendar-queue core)."""

    __slots__ = ("_now", "_seq", "_queue", "_processed", "_pool",
                 "_profiler", "_fast_dispatch", "_handler_keys",
                 "_pool_misses", "_sched_base", "__weakref__")

    def __init__(self, bucket_shift: Optional[int] = None,
                 far_span: Optional[int] = None) -> None:
        self._now = 0
        self._seq = 0
        kwargs = {}
        if bucket_shift is not None:
            kwargs["shift"] = bucket_shift
        if far_span is not None:
            kwargs["span"] = far_span
        self._queue = CalendarQueue(**kwargs)
        self._processed = 0
        self._pool: List[Event] = []
        self._profiler: Optional[Any] = None
        #: True while no profiler is attached: unbounded runs take the
        #: tight loop; updated only on (de)attachment.
        self._fast_dispatch = True
        #: callback code object -> attribution key (profiled dispatch)
        self._handler_keys: Dict[Any, str] = {}
        #: fresh Event allocations (pool misses); hits are derived as
        #: scheduled - misses, so the pool-reuse hot path pays nothing
        self._pool_misses = 0
        #: events scheduled before the last reset() (``_seq`` restarts)
        self._sched_base = 0
        _ENGINES.add(self)

    # ------------------------------------------------------------------
    # host profiler seam
    # ------------------------------------------------------------------

    @property
    def profiler(self) -> Optional[Any]:
        """Optional host wall-clock profiler (``repro.prof``) timing
        each dispatched callback under a per-handler key."""
        return self._profiler

    @profiler.setter
    def profiler(self, prof: Optional[Any]) -> None:
        self._profiler = prof
        self._fast_dispatch = prof is None

    # ------------------------------------------------------------------
    # clock / introspection
    # ------------------------------------------------------------------

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
        return len(self._queue)

    def pooled(self) -> int:
        """Number of recycled Event objects waiting for reuse."""
        return len(self._pool)

    def compact(self) -> int:
        """Force a cancelled-entry compaction; returns entries removed."""
        return self._queue.compact()

    def _note_cancel(self) -> None:
        self._queue.note_cancel()

    def reset(self) -> None:
        """Rewind the clock to zero and drop all pending events.

        Part of the resettable target lifecycle: a reused engine must
        schedule and fire exactly like a freshly constructed one, so the
        sequence counter restarts too (event ordering ties break on it).
        The recycled-event pool is kept — pooled events carry no state.
        """
        self._sched_base += self._seq
        self._now = 0
        self._seq = 0
        self._processed = 0
        self._queue.clear()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {self._now}"
            )
        self._seq += 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = self._seq
            event.fn = fn
            event.args = args
            event.cancelled = False
            event.live = True
        else:
            event = Event(time, self._seq, fn, args)
            event._engine = self
            self._pool_misses += 1
        self._queue.push(event)
        return event

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` picoseconds."""
        return self.schedule_at(self._now + delay, fn, *args)

    def _recycle(self, event: Event) -> None:
        event.live = False
        event.fn = None
        event.args = None
        pool = self._pool
        if len(pool) < EVENT_POOL_CAP:
            pool.append(event)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have fired.  Returns the final time.
        """
        if until is None and max_events is None and self._fast_dispatch:
            return self._run_fast()
        return self._run_full(until, max_events)

    def _run_fast(self) -> int:
        """Tight loop: no profiler, no bounds.

        Binds the queue internals to locals and batches same-timestamp
        dispatch (the clock is stored once per distinct timestamp, and a
        sorted bucket is consumed in one sweep without re-entering the
        scheduler between callbacks).
        """
        queue = self._queue
        pool = self._pool
        pool_cap = EVENT_POOL_CAP
        open_next = queue._open_next
        shift = queue.shift
        processed = 0
        now = self._now
        while True:
            # singleton lane: when exactly one event is pending the
            # queue parks it outside the bucket machinery; dispatch it
            # directly (the dependent-chain regime lives here)
            event = queue._single
            if event is not None:
                queue._single = None
                queue._size = 0
                queue.singles += 1
                if event.cancelled:
                    queue.cancelled -= 1
                    event.live = False
                    event.fn = None
                    event.args = None
                    if len(pool) < pool_cap:
                        pool.append(event)
                    continue
                time = event.time
                if time != now:
                    now = time
                    self._now = time
                bucket = time >> shift
                if bucket > queue._head:
                    queue._head = bucket
                fn = event.fn
                args = event.args
                event.live = False
                fn(*args)
                processed += 1
                event.fn = None
                event.args = None
                if len(pool) < pool_cap:
                    pool.append(event)
                continue
            entries = queue._active
            if entries is None:
                if not open_next():
                    break
                entries = queue._active
            idx = queue._active_idx
            while idx < len(entries):
                event = entries[idx]
                idx += 1
                # keep the queue's cursor accurate: callbacks may insort
                # into this bucket, and the insertion point must stay at
                # or past the consumed prefix (which can hold recycled
                # Event objects).  The size drops per event — not per
                # bucket — so a callback scheduling from the final slot
                # sees an empty queue and can park a singleton.
                queue._active_idx = idx
                queue._size -= 1
                if event.cancelled:
                    queue.cancelled -= 1
                    event.live = False
                    event.fn = None
                    event.args = None
                    if len(pool) < pool_cap:
                        pool.append(event)
                    continue
                time = event.time
                if time != now:
                    now = time
                    self._now = time
                fn = event.fn
                args = event.args
                event.live = False
                fn(*args)
                processed += 1
                event.fn = None
                event.args = None
                if len(pool) < pool_cap:
                    pool.append(event)
            # bucket fully consumed (callbacks may have grown it; the
            # length re-check above covers that)
            queue._active = None
            queue._active_idx = 0
        self._processed += processed
        return self._now

    def _run_full(self, until: Optional[int], max_events: Optional[int]) -> int:
        """Bounded / profiled loop.

        Exact replica of the legacy kernel's observable behaviour: the
        ``until``/``max_events`` stop conditions match the seed kernel
        decision for decision.  With a profiler attached, each callback
        is timed under a ``handler.<qualname>`` key.
        """
        prof = self._profiler
        keys = self._handler_keys
        fired = 0
        queue = self._queue
        while True:
            peek = queue.peek_time()
            if peek is None:
                break
            if until is not None and peek > until:
                self._now = until
                return self._now
            event = queue.pop()
            if event.cancelled:
                queue.cancelled -= 1
                self._recycle(event)
                continue
            self._now = event.time
            fn = event.fn
            args = event.args
            event.live = False
            if prof is None:
                fn(*args)
            else:
                code = _handler_code(fn)
                key = keys.get(code)
                if key is None:
                    key = keys[code] = _handler_key(fn)
                frame = prof.push(key)
                try:
                    fn(*args)
                finally:
                    prof.pop(frame)
            self._processed += 1
            self._recycle(event)
            fired += 1
            if max_events is not None and fired >= max_events:
                break
        if until is not None and self._now < until:
            self._now = until
        return self._now

    # ------------------------------------------------------------------
    # kernel health introspection
    # ------------------------------------------------------------------

    def kernel_stats(self) -> Dict[str, Any]:
        """Snapshot of the kernel's internal health counters.

        Covers the calendar queue (bucket occupancy, far-heap
        migrations, lazy-deletion compactions, batched-dispatch batch
        sizes) and the event pool (hit rate).  Cheap enough to call
        per bench entry; computed on demand, never in the hot loops.
        """
        queue = self._queue
        scheduled = self._sched_base + self._seq
        misses = self._pool_misses
        hits = scheduled - misses
        return {
            "events": self._processed,
            "scheduled": scheduled,
            "pending": len(queue),
            "pooled": len(self._pool),
            "pool_hits": hits,
            "pool_misses": misses,
            "pool_hit_rate": (hits / scheduled) if scheduled else 0.0,
            "far_migrations": queue.far_migrations,
            "compactions": queue.compactions,
            "compacted_entries": queue.compacted_entries,
            "cancelled_pending": queue.cancelled,
            "singleton_dispatches": queue.singles,
            "batch_hist": queue.batch_histogram(),
            **queue.occupancy(),
        }

    def publish_kernel_gauges(self, bus: Any, prefix: str = "kernel") -> None:
        """Register the health counters as pull-gauges on an
        :class:`~repro.instrument.InstrumentBus`."""
        queue = self._queue
        bus.gauge(f"{prefix}.events", lambda: self._processed)
        bus.gauge(f"{prefix}.pending", lambda: len(queue))
        bus.gauge(f"{prefix}.pooled", lambda: len(self._pool))
        bus.gauge(f"{prefix}.pool_misses", lambda: self._pool_misses)
        bus.gauge(f"{prefix}.pool_hits",
                  lambda: self._sched_base + self._seq - self._pool_misses)

        def hit_rate() -> float:
            scheduled = self._sched_base + self._seq
            if not scheduled:
                return 0.0
            return (scheduled - self._pool_misses) / scheduled

        bus.gauge(f"{prefix}.pool_hit_rate", hit_rate)
        bus.gauge(f"{prefix}.far_migrations",
                  lambda: queue.far_migrations)
        bus.gauge(f"{prefix}.compactions", lambda: queue.compactions)
        bus.gauge(f"{prefix}.compacted_entries",
                  lambda: queue.compacted_entries)
        bus.gauge(f"{prefix}.singleton_dispatches",
                  lambda: queue.singles)
        bus.gauge(f"{prefix}.buckets",
                  lambda: queue.occupancy()["buckets"])
        bus.gauge(f"{prefix}.far_events", lambda: len(queue._far))

    def step(self) -> Optional[Tuple[int, Callable[..., Any]]]:
        """Fire exactly one (non-cancelled) event; return (time, fn) or None."""
        queue = self._queue
        while True:
            event = queue.pop()
            if event is None:
                return None
            if event.cancelled:
                queue.cancelled -= 1
                self._recycle(event)
                continue
            self._now = event.time
            fn = event.fn
            args = event.args
            event.live = False
            fn(*args)
            self._processed += 1
            time = event.time
            self._recycle(event)
            return (time, fn)

    def advance(self, time: int) -> None:
        """Move the clock forward without firing events (idle time)."""
        if time < self._now:
            raise SimulationError(f"cannot move time backwards to {time}")
        self._now = time


#: kernel_stats keys summed across engines by aggregate_kernel_stats
_AGG_SCALARS = ("events", "scheduled", "pending", "pooled", "pool_hits",
                "pool_misses", "far_migrations", "compactions",
                "compacted_entries", "cancelled_pending",
                "singleton_dispatches", "buckets", "binned_events",
                "active_remaining", "far_events")


def aggregate_kernel_stats() -> Dict[str, Any]:
    """Sum :meth:`Engine.kernel_stats` across every live engine in this
    process.  Serve workers ship this with each job result so the
    daemon's ``/metrics`` can expose ``repro_kernel_*`` series."""
    agg: Dict[str, Any] = {key: 0 for key in _AGG_SCALARS}
    agg["engines"] = 0
    hist: Dict[str, int] = {}
    for engine in list(_ENGINES):
        stats = engine.kernel_stats()
        agg["engines"] += 1
        for key in _AGG_SCALARS:
            agg[key] += stats.get(key, 0)
        for label, count in stats.get("batch_hist", {}).items():
            hist[label] = hist.get(label, 0) + count
    agg["batch_hist"] = hist
    scheduled = agg["scheduled"]
    agg["pool_hit_rate"] = (agg["pool_hits"] / scheduled) if scheduled else 0.0
    return agg


class LegacyEngine:
    """The seed kernel: one global binary heap of events.

    Retained as the reference implementation: the property tests assert
    the calendar queue reproduces its firing order exactly, and
    ``repro-bench --suite kernel`` measures the fast kernel against it.
    Carries the same cancelled-entry compaction fix as :class:`Engine`
    (the seed version leaked cancelled entries until their timestamp).
    """

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
        before = len(self._heap)
        self._heap = [e for e in self._heap if not e.cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
        return before - len(self._heap)

    def reset(self) -> None:
        """Rewind to the as-built state (see :meth:`Engine.reset`)."""
        self._now = 0
        self._seq = 0
        self._heap.clear()
        self._processed = 0
        self._cancelled = 0

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {self._now}"
            )
        self._seq += 1
        event = Event(time, self._seq, fn, args)
        event._engine = self
        heapq.heappush(self._heap, event)
        return event

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` picoseconds."""
        return self.schedule_at(self._now + delay, fn, *args)

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` callbacks have fired.  Returns the final time.
        """
        fired = 0
        while self._heap:
            event = self._heap[0]
            if until is not None and event.time > until:
                self._now = until
                return self._now
            heapq.heappop(self._heap)
            if event.cancelled:
                if self._cancelled > 0:
                    self._cancelled -= 1
                continue
            self._now = event.time
            event.live = False
            event.fn(*event.args)
            self._processed += 1
            fired += 1
            if max_events is not None and fired >= max_events:
                break
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def step(self) -> Optional[Tuple[int, Callable[..., Any]]]:
        """Fire exactly one (non-cancelled) event; return (time, fn) or None."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                if self._cancelled > 0:
                    self._cancelled -= 1
                continue
            self._now = event.time
            event.live = False
            event.fn(*event.args)
            self._processed += 1
            return (event.time, event.fn)
        return None

    def advance(self, time: int) -> None:
        """Move the clock forward without firing events (idle time)."""
        if time < self._now:
            raise SimulationError(f"cannot move time backwards to {time}")
        self._now = time
