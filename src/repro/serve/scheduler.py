"""Fair round-robin session scheduler with per-tenant quotas.

The daemon may hold many sessions from many tenants while the worker
pool is deliberately small; this module decides *whose job runs next*:

* **fairness** — queued tenants are served round-robin, one dispatch
  per turn, so a tenant that dumps 50 jobs cannot starve a tenant that
  submits one (dispatch order is recorded in :attr:`dispatch_log` so
  tests assert the interleaving deterministically);
* **quotas** — each tenant has a :class:`TenantQuota` bounding its
  concurrently *running* jobs (``max_active``) and its *queued* backlog
  (``max_queued``);
* **backpressure** — a submit beyond ``max_queued`` (or after
  :meth:`SessionScheduler.drain` began) raises
  :class:`~repro.common.errors.QuotaExceededError`, which the daemon
  maps to a 429-style ``rejected`` reply: clients see the bound
  immediately instead of the daemon buffering without limit.

The scheduler is synchronous and pool-agnostic — anything with
``free_slots()`` and ``submit(job, callback)`` works, which is how the
unit tests drive it deterministically with a fake pool.  Completion
callbacks arrive on pool watcher threads; all state is lock-protected.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.common.errors import QuotaExceededError

#: dispatch-log retention on a long-lived daemon: the log is fairness
#: *evidence*, not an audit trail, so it is a bounded deque — recent
#: interleavings stay inspectable while memory stays flat.  The
#: all-time count lives in ``stats["dispatch_log_total"]``.
DISPATCH_LOG_CAP = 1024


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant scheduling bounds."""

    #: jobs a tenant may have running at once
    max_active: int = 2
    #: jobs a tenant may have queued (beyond running) before submits
    #: are rejected with a 429
    max_queued: int = 8


class SessionScheduler:
    """Packs session jobs onto a bounded worker pool, fairly."""

    def __init__(self, pool, default_quota: TenantQuota = TenantQuota(),
                 quotas: Optional[Dict[str, TenantQuota]] = None,
                 dispatch_log_cap: int = DISPATCH_LOG_CAP) -> None:
        self._pool = pool
        self._default_quota = default_quota
        self._quotas = dict(quotas or {})
        self._lock = threading.RLock()
        self._queues: Dict[str, Deque[Tuple[Any, Callable,
                                            Optional[Callable]]]] = {}
        #: round-robin rotation of tenant names with queued work
        self._rotation: Deque[str] = deque()
        self._active: Dict[str, int] = {}
        self._draining = False
        self._idle = threading.Event()
        self._idle.set()
        self.stats: Dict[str, int] = {"submitted": 0, "dispatched": 0,
                                      "completed": 0, "rejected": 0}
        #: tenant name per dispatch, most recent ``dispatch_log_cap``
        #: entries (fairness evidence; bounded so a long-lived daemon's
        #: memory stays flat — ``dispatch_log_total`` keeps counting)
        self.dispatch_log: Deque[str] = deque(maxlen=dispatch_log_cap)
        self.dispatch_log_total = 0
        #: all-time dispatches per tenant (fairness series in metrics)
        self.dispatched_by_tenant: Dict[str, int] = {}

    def quota_for(self, tenant: str) -> TenantQuota:
        return self._quotas.get(tenant, self._default_quota)

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        with self._lock:
            self._quotas[tenant] = quota

    # -- submission ------------------------------------------------------

    def submit(self, tenant: str, job: Any,
               callback: Callable[[Tuple[str, Any]], None],
               on_progress: Optional[Callable[[Any], None]] = None
               ) -> None:
        """Queue a job for ``tenant``; ``callback(outcome)`` fires when
        the pool settles it, and ``on_progress(frame)`` (when given)
        fires for every non-terminal progress frame the job streams.

        Raises :class:`QuotaExceededError` (``code`` 429) when the
        tenant's queue is full or the scheduler is draining — the
        bounded-queue backpressure contract.
        """
        with self._lock:
            if self._draining:
                self.stats["rejected"] += 1
                raise QuotaExceededError(
                    tenant, "scheduler is draining; not accepting jobs")
            q = self._queues.setdefault(tenant, deque())
            quota = self.quota_for(tenant)
            if len(q) >= quota.max_queued:
                self.stats["rejected"] += 1
                raise QuotaExceededError(
                    tenant, f"queue full ({quota.max_queued} deep; "
                            f"{self._active.get(tenant, 0)} running)")
            q.append((job, callback, on_progress))
            if tenant not in self._rotation:
                self._rotation.append(tenant)
            self.stats["submitted"] += 1
            self._idle.clear()
            self._dispatch_locked()

    def _dispatch_locked(self) -> None:
        """Hand queued jobs to free pool slots, one tenant per turn.

        Each pass rotates through every queued tenant once; a tenant at
        its ``max_active`` (or with an empty queue) is skipped.  The
        loop ends when the pool is full or no tenant can progress.
        """
        while self._pool.free_slots() > 0 and self._rotation:
            progressed = False
            for _ in range(len(self._rotation)):
                tenant = self._rotation[0]
                self._rotation.rotate(-1)
                q = self._queues.get(tenant)
                if not q:
                    self._drop_from_rotation(tenant)
                    continue
                if self._active.get(tenant, 0) >= \
                        self.quota_for(tenant).max_active:
                    continue
                job, callback, on_progress = q.popleft()
                if not q:
                    self._drop_from_rotation(tenant)
                self._active[tenant] = self._active.get(tenant, 0) + 1
                self.stats["dispatched"] += 1
                self.dispatch_log.append(tenant)
                self.dispatch_log_total += 1
                self.dispatched_by_tenant[tenant] = \
                    self.dispatched_by_tenant.get(tenant, 0) + 1
                if on_progress is None:
                    # two-argument form keeps every pool stand-in
                    # (tests, fakes) compatible
                    self._pool.submit(
                        job, self._make_done(tenant, callback))
                else:
                    self._pool.submit(
                        job, self._make_done(tenant, callback),
                        on_progress=on_progress)
                progressed = True
                if self._pool.free_slots() <= 0:
                    return
            if not progressed:
                return

    def _drop_from_rotation(self, tenant: str) -> None:
        try:
            self._rotation.remove(tenant)
        except ValueError:
            pass

    def _make_done(self, tenant: str,
                   callback: Callable) -> Callable:
        def done(outcome: Tuple[str, Any]) -> None:
            with self._lock:
                self.stats["completed"] += 1
            # the job stays active through its callback, so drain()
            # returns only after the last callback has run
            callback(outcome)
            with self._lock:
                self._active[tenant] = max(
                    0, self._active.get(tenant, 0) - 1)
                self._dispatch_locked()
                if not self._rotation and not any(self._active.values()):
                    self._idle.set()
        return done

    # -- introspection / lifecycle --------------------------------------

    def queued(self, tenant: Optional[str] = None) -> int:
        with self._lock:
            if tenant is not None:
                return len(self._queues.get(tenant, ()))
            return sum(len(q) for q in self._queues.values())

    def active(self, tenant: Optional[str] = None) -> int:
        with self._lock:
            if tenant is not None:
                return self._active.get(tenant, 0)
            return sum(self._active.values())

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                **self.stats,
                "queued": sum(len(q) for q in self._queues.values()),
                "active": sum(self._active.values()),
                "tenants": sorted(set(self._queues) | set(self._active)),
                "draining": self._draining,
                "dispatch_log_total": self.dispatch_log_total,
                "queued_by_tenant": {t: len(q) for t, q
                                     in self._queues.items() if q},
                "active_by_tenant": {t: n for t, n
                                     in self._active.items() if n},
                "dispatched_by_tenant": dict(self.dispatched_by_tenant),
            }

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Stop accepting new jobs; wait for queued+active to settle.

        Returns ``True`` when the scheduler went idle within
        ``timeout_s`` (``None`` waits indefinitely).  Safe to call more
        than once; submissions during/after raise 429.
        """
        with self._lock:
            self._draining = True
            if not self._rotation and not any(self._active.values()):
                self._idle.set()
        return self._idle.wait(timeout_s)
