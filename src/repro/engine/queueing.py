"""FCFS queueing algebra.

These primitives model contention analytically.  They are exact for
first-come-first-serve service disciplines (the policy the paper measured
inside Optane DIMMs and the default in VANS): given monotonically
non-decreasing arrival times, the departure process they compute is
identical to what a per-cycle simulation of the same station produces.

* :class:`Server` — a single resource serving one request at a time.
* :class:`BankedServer` — N independent servers that callers index
  directly (the 3D-XPoint media partitions), with aggregate gauges.
* :class:`FcfsStation` — a bounded buffer of K entries drained in order;
  admission blocks when the buffer is full (the WPQ/LSQ behaviour that
  produces the paper's 512B and 4KB write inflection points).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.common.errors import ConfigError


class Server:
    """Single-resource FCFS server tracked by a busy-until timestamp."""

    __slots__ = ("busy_until", "total_busy", "served")

    def __init__(self) -> None:
        self.busy_until = 0
        self.total_busy = 0
        self.served = 0

    def serve(self, arrival: int, service: int) -> int:
        """Serve a request arriving at ``arrival`` needing ``service`` ps.

        Returns the completion time.
        """
        start = arrival if arrival > self.busy_until else self.busy_until
        completion = start + service
        self.busy_until = completion
        self.total_busy += service
        self.served += 1
        return completion

    def utilization(self, elapsed: int) -> float:
        """Fraction of ``elapsed`` spent busy (0 if no time passed)."""
        return self.total_busy / elapsed if elapsed > 0 else 0.0

    def publish(self, stats, prefix: str) -> None:
        """Register pull-gauges for this server on a stats registry.

        Gauges are evaluated only at snapshot time, so publishing adds
        zero cost to the serve path.
        """
        stats.gauge(f"{prefix}.served", lambda: self.served)
        stats.gauge(f"{prefix}.busy_ps", lambda: self.total_busy)


class BankedServer:
    """A set of independent FCFS servers: callers serve on ``banks[i]``
    directly; this owns them and publishes their aggregate gauges."""

    __slots__ = ("banks", "nbanks")

    def __init__(self, nbanks: int) -> None:
        if nbanks <= 0:
            raise ConfigError(f"nbanks must be positive, got {nbanks}")
        self.banks: List[Server] = [Server() for _ in range(nbanks)]
        self.nbanks = nbanks

    def __len__(self) -> int:
        return self.nbanks

    @property
    def served(self) -> int:
        return sum(bank.served for bank in self.banks)

    @property
    def total_busy(self) -> int:
        return sum(bank.total_busy for bank in self.banks)

    def publish(self, stats, prefix: str) -> None:
        """Register aggregate pull-gauges across all banks."""
        stats.gauge(f"{prefix}.served", lambda: self.served)
        stats.gauge(f"{prefix}.busy_ps", lambda: self.total_busy)


class FcfsStation:
    """Bounded K-entry buffer drained first-come-first-serve.

    Entries are admitted when a slot is free and retire at caller-supplied
    completion times.  ``admit`` returns the time the entry actually enters
    the buffer — later than the arrival time whenever the buffer is full,
    which is exactly the backpressure that stalls CPU stores once a write
    region overflows the WPQ or LSQ.
    """

    __slots__ = ("capacity", "_completions", "admitted", "total_wait", "peak_occupancy")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigError(f"station capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._completions: Deque[int] = deque()
        self.admitted = 0
        self.total_wait = 0
        self.peak_occupancy = 0

    def occupancy(self, now: int) -> int:
        """Number of entries still resident at time ``now``."""
        self._expire(now)
        return len(self._completions)

    def _expire(self, now: int) -> None:
        completions = self._completions
        while completions and completions[0] <= now:
            completions.popleft()

    def admit(self, arrival: int) -> int:
        """Admit an entry arriving at ``arrival``; returns admission time.

        The caller must later call :meth:`retire_at` with the entry's
        completion (drain) time.  Entries drained by ``arrival`` expire
        first.
        """
        completions = self._completions
        while completions and completions[0] <= arrival:
            completions.popleft()
        if len(completions) < self.capacity:
            admit_time = arrival
        else:
            # Block until the oldest resident entry drains (FCFS retire order).
            admit_time = completions.popleft()
        self.admitted += 1
        self.total_wait += admit_time - arrival
        return admit_time

    def retire_at(self, completion: int) -> None:
        """Record the drain-completion time of the most recently admitted entry.

        Completion times must be non-decreasing across entries (guaranteed
        by FCFS drains); a violation indicates a modeling bug.
        """
        completions = self._completions
        if completions and completion < completions[-1]:
            # Clamp rather than reorder: FCFS drains retire in order.
            completion = completions[-1]
        completions.append(completion)
        if len(completions) > self.peak_occupancy:
            self.peak_occupancy = len(completions)

    def drain_time(self, now: int) -> int:
        """Time at which the buffer becomes empty (``now`` if already empty)."""
        self._expire(now)
        return self._completions[-1] if self._completions else now

    def publish(self, stats, prefix: str) -> None:
        """Register pull-gauges: admissions, blocked time, peak occupancy."""
        stats.gauge(f"{prefix}.admitted", lambda: self.admitted)
        stats.gauge(f"{prefix}.blocked_ps", lambda: self.total_wait)
        stats.gauge(f"{prefix}.peak_occupancy", lambda: self.peak_occupancy)
