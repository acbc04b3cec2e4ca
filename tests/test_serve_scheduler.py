"""Session scheduler: fairness, quotas, backpressure, drain — plus the
real worker pool's watchdog/respawn/shutdown behavior.

Scheduler tests use a fake pool so every dispatch decision is
deterministic and observable through ``dispatch_log``; the pool tests
spawn real worker processes (small and short-lived).
"""

from __future__ import annotations

import threading

import pytest

from repro.common.errors import QuotaExceededError
from repro.serve.pool import WorkerPool
from repro.serve.scheduler import SessionScheduler, TenantQuota


class FakePool:
    """Deterministic stand-in: jobs finish only when the test says so."""

    def __init__(self, slots: int = 1) -> None:
        self.slots = slots
        self.running = []          # (job, done) in dispatch order

    def free_slots(self) -> int:
        return self.slots - len(self.running)

    def submit(self, job, done, timeout_s=None) -> None:
        assert self.free_slots() > 0, "scheduler over-dispatched"
        self.running.append((job, done))

    def finish(self, index: int = 0, outcome=("ok", {})) -> None:
        job, done = self.running.pop(index)
        done(outcome)

    def finish_all(self) -> None:
        while self.running:
            self.finish(0)


def collector():
    outcomes = []
    return outcomes, lambda outcome: outcomes.append(outcome)


class TestFairness:
    def test_round_robin_under_mixed_tenant_load(self):
        """A tenant dumping a deep backlog cannot starve a light one."""
        pool = FakePool(slots=1)
        sched = SessionScheduler(pool, TenantQuota(max_active=4,
                                                   max_queued=16))
        _, done = collector()
        sched.submit("x", {"blocker": True}, done)   # occupies the slot
        for i in range(3):
            sched.submit("hog", {"n": i}, done)
        for i in range(2):
            sched.submit("mouse", {"n": i}, done)
        pool.finish_all()
        assert list(sched.dispatch_log) == ["x", "hog", "mouse", "hog",
                                            "mouse", "hog"]
        assert sched.dispatch_log_total == 6
        assert sched.stats["completed"] == 6
        assert sched.queued() == 0 and sched.active() == 0

    def test_single_tenant_uses_all_slots(self):
        pool = FakePool(slots=3)
        sched = SessionScheduler(pool, TenantQuota(max_active=3,
                                                   max_queued=8))
        _, done = collector()
        for i in range(5):
            sched.submit("solo", {"n": i}, done)
        assert len(pool.running) == 3
        assert sched.queued("solo") == 2
        pool.finish_all()
        assert sched.stats["completed"] == 5

    def test_dispatch_order_preserved_within_tenant(self):
        pool = FakePool(slots=1)
        sched = SessionScheduler(pool, TenantQuota(max_active=2,
                                                   max_queued=8))
        seen, done = collector()
        for i in range(4):
            sched.submit("t", {"n": i}, lambda o, i=i: seen.append(i))
        pool.finish_all()
        assert seen == [0, 1, 2, 3]
        del done


class TestQuotas:
    def test_max_active_caps_a_tenant_below_pool_size(self):
        pool = FakePool(slots=4)
        sched = SessionScheduler(pool, TenantQuota(max_active=1,
                                                   max_queued=8))
        _, done = collector()
        for i in range(3):
            sched.submit("capped", {"n": i}, done)
        assert sched.active("capped") == 1      # slots free, quota not
        assert sched.queued("capped") == 2
        pool.finish(0)
        assert sched.active("capped") == 1      # refilled one at a time
        pool.finish_all()
        assert sched.stats["completed"] == 3

    def test_per_tenant_quota_override(self):
        pool = FakePool(slots=4)
        sched = SessionScheduler(pool, TenantQuota(max_active=1,
                                                   max_queued=8))
        sched.set_quota("vip", TenantQuota(max_active=3, max_queued=8))
        _, done = collector()
        for i in range(3):
            sched.submit("vip", {"n": i}, done)
        assert sched.active("vip") == 3
        pool.finish_all()


class TestBackpressure:
    def test_queue_overflow_rejected_with_429(self):
        pool = FakePool(slots=0)                 # nothing ever dispatches
        sched = SessionScheduler(pool, TenantQuota(max_active=1,
                                                   max_queued=2))
        _, done = collector()
        sched.submit("t", {"n": 0}, done)
        sched.submit("t", {"n": 1}, done)
        with pytest.raises(QuotaExceededError) as exc_info:
            sched.submit("t", {"n": 2}, done)
        assert exc_info.value.code == 429
        assert "queue full" in str(exc_info.value)
        assert sched.stats["rejected"] == 1
        assert sched.queued("t") == 2            # rejected job not queued

    def test_rejection_is_per_tenant(self):
        pool = FakePool(slots=0)
        sched = SessionScheduler(pool, TenantQuota(max_active=1,
                                                   max_queued=1))
        _, done = collector()
        sched.submit("a", {}, done)
        with pytest.raises(QuotaExceededError):
            sched.submit("a", {}, done)
        sched.submit("b", {}, done)              # other tenants unaffected


class TestDrain:
    def test_drain_rejects_new_work_and_waits_for_idle(self):
        pool = FakePool(slots=1)
        sched = SessionScheduler(pool, TenantQuota())
        _, done = collector()
        sched.submit("t", {}, done)
        assert sched.drain(timeout_s=0.05) is False   # job still running
        with pytest.raises(QuotaExceededError) as exc_info:
            sched.submit("t", {}, done)
        assert "draining" in str(exc_info.value)
        pool.finish_all()
        assert sched.drain(timeout_s=5) is True
        assert sched.snapshot()["draining"] is True

    def test_drain_on_idle_scheduler_returns_immediately(self):
        sched = SessionScheduler(FakePool(slots=1), TenantQuota())
        assert sched.drain(timeout_s=0.1) is True


class TestWorkerPool:
    """Real processes: keep them few and the jobs tiny."""

    @pytest.fixture()
    def pool(self):
        pool = WorkerPool(workers=1)
        yield pool
        pool.shutdown()
        assert pool.processes_alive() == 0

    def settle(self, pool, job, timeout_s=None):
        outcome = []
        settled = threading.Event()

        def done(result):
            outcome.append(result)
            settled.set()

        pool.submit(job, done, timeout_s=timeout_s)
        assert settled.wait(timeout=60), "job never settled"
        return outcome[0]

    def test_ping_round_trip(self, pool):
        status, payload = self.settle(pool, {"kind": "ping"})
        assert status == "ok"
        assert payload["pong"] is True

    def test_unknown_experiment_rejected_with_suggestion(self, pool):
        status, payload = self.settle(
            pool, {"kind": "experiment", "experiment": "fig99",
                   "scale": "smoke", "seed": 1})
        assert status == "reject"
        assert payload["code"] == 2
        assert "did you mean" in payload["error"]

    def test_worker_death_respawns_process(self, pool):
        status, payload = self.settle(pool, {"kind": "_test_die"})
        assert status == "error"
        assert "died" in payload
        # watcher replaced the corpse with a live process
        assert pool.processes_alive() == 1
        assert pool.stats["respawned"] >= 1
        # and the pool still serves jobs afterwards
        status, _ = self.settle(pool, {"kind": "ping"})
        assert status == "ok"

    def test_watchdog_times_out_stuck_job(self, pool):
        status, payload = self.settle(
            pool, {"kind": "_test_sleep", "seconds": 30},
            timeout_s=0.5)
        assert status == "timeout"
        assert pool.stats["timeouts"] == 1
        # respawned worker keeps working
        status, _ = self.settle(pool, {"kind": "ping"})
        assert status == "ok"

    def test_shutdown_is_idempotent_and_leaves_nothing(self):
        pool = WorkerPool(workers=2)
        assert pool.processes_alive() == 2
        pool.shutdown()
        pool.shutdown()
        assert pool.processes_alive() == 0
        assert pool.free_slots() == 0
        with pytest.raises(RuntimeError):
            pool.submit({"kind": "ping"}, lambda outcome: None)
