"""End-to-end daemon tests: real sockets, real workers, many sessions.

The acceptance bar for the serve engine: sustain at least 8 concurrent
client sessions, schedule them fairly (every tenant's first job
dispatched before any tenant's second), settle everything, and shut
down without leaving a worker process behind.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.common.errors import QuotaExceededError
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import running_daemon

STREAM_OPS = [{"op": "read", "addr": 0, "count": 2000, "stride": 64},
              {"op": "write", "addr": 0, "count": 1000, "stride": 64},
              {"op": "fence"}]


class TestConcurrentSessions:
    def test_eight_sessions_fair_completion_clean_shutdown(self):
        """≥8 concurrent tenant sessions, round-robin dispatch, and a
        shutdown that orphans nothing."""
        ntenants = 8
        with running_daemon(workers=1, warm_cache=4, max_active=1,
                            max_queued=4) as daemon:
            # Hold dispatch until every tenant's two jobs are queued:
            # clients submit one after another, so a work-conserving
            # scheduler could otherwise legally start t0's second job
            # before t7's first has arrived.
            gate = threading.Event()
            free_slots = daemon.pool.free_slots
            daemon.pool.free_slots = \
                lambda: free_slots() if gate.is_set() else 0
            clients = [ServeClient("127.0.0.1", daemon.port,
                                   tenant=f"t{i}")
                       for i in range(ntenants)]
            try:
                assert len({c.session for c in clients}) == ntenants
                # every tenant submits two jobs up front; with one
                # worker the scheduler must interleave the tenants
                submitted = [(c, [c.submit_stream("vans", STREAM_OPS),
                                  c.submit_stream("vans", STREAM_OPS)])
                             for c in clients]
                deadline = time.monotonic() + 60
                while daemon.scheduler.queued() < 2 * ntenants:
                    assert time.monotonic() < deadline, "jobs never queued"
                    time.sleep(0.01)
                # a submit is what runs dispatch: open the gate, then
                # queue one more (third) job for t0
                gate.set()
                submitted[0][1].append(
                    clients[0].submit_stream("vans", STREAM_OPS[:1]))
                replies = []
                errors = []

                def collect(client, ids):
                    try:
                        for request_id in ids:
                            replies.append(client.wait(request_id))
                    except Exception as exc:   # pragma: no cover
                        errors.append(exc)

                threads = [threading.Thread(target=collect, args=pair)
                           for pair in submitted]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not errors
                assert len(replies) == 2 * ntenants + 1
                assert all(r["type"] == "result" and r["status"] == "ok"
                           for r in replies)
                # fairness: round-robin over what was queued — every
                # tenant's first job, then every second job in the same
                # rotation, then t0's third
                log = list(daemon.scheduler.dispatch_log)
                rotation = log[:ntenants]
                assert sorted(rotation) == \
                    sorted(f"t{i}" for i in range(ntenants))
                assert log == rotation + rotation + ["t0"]
                assert daemon.scheduler.stats["completed"] == \
                    2 * ntenants + 1
            finally:
                for c in clients:
                    c.close()
            pool = daemon.pool
        assert pool.processes_alive() == 0
        assert daemon.scheduler.active() == 0
        assert daemon.scheduler.queued() == 0

    def test_results_carry_session_identity(self):
        with running_daemon(workers=1) as daemon:
            with ServeClient("127.0.0.1", daemon.port,
                             tenant="ident") as client:
                reply = client.run_stream("vans", STREAM_OPS)
                stream = reply["stream"]
                assert stream["session"] == {"session": client.session,
                                             "tenant": "ident"}
                manifest = reply["manifest"]
                assert manifest["session"]["session"] == client.session
                assert manifest["session"]["tenant"] == "ident"


class TestQuotaOverWire:
    def test_over_quota_submit_rejected_429(self):
        busy = [{"op": "read", "count": 25_000, "stride": 64}]
        with running_daemon(workers=1, max_active=1,
                            max_queued=1) as daemon:
            with ServeClient("127.0.0.1", daemon.port,
                             tenant="greedy") as client:
                first = client.submit_stream("vans", busy)
                second = client.submit_stream("vans", busy)
                third = client.submit_stream("vans", busy)
                rejection = client.wait(third, raise_on_error=False)
                assert rejection["type"] == "rejected"
                assert rejection["code"] == 429
                assert client.wait(first)["status"] == "ok"
                assert client.wait(second)["status"] == "ok"
            del daemon

    def test_rejection_raises_quota_error_by_default(self):
        busy = [{"op": "read", "count": 25_000, "stride": 64}]
        with running_daemon(workers=1, max_active=1,
                            max_queued=1) as daemon:
            with ServeClient("127.0.0.1", daemon.port,
                             tenant="greedy") as client:
                first = client.submit_stream("vans", busy)
                second = client.submit_stream("vans", busy)
                third = client.submit_stream("vans", busy)
                with pytest.raises(QuotaExceededError):
                    client.wait(third)
                client.wait(first)
                client.wait(second)
            del daemon


class TestErrorsOverWire:
    def test_unknown_experiment_suggestion_reaches_client(self):
        with running_daemon(workers=1) as daemon:
            with ServeClient("127.0.0.1", daemon.port) as client:
                with pytest.raises(ServeError) as exc_info:
                    client.run_experiment("fig99")
                assert exc_info.value.code == 2
                assert "did you mean" in str(exc_info.value)

    def test_override_typo_rejected_with_suggestion(self):
        with running_daemon(workers=1) as daemon:
            with ServeClient("127.0.0.1", daemon.port) as client:
                with pytest.raises(ServeError) as exc_info:
                    client.run_stream("vans", STREAM_OPS,
                                      overrides={"lazy_cahe": True})
                assert exc_info.value.code == 2
                message = str(exc_info.value)
                assert "lazy_cahe" in message
                assert "lazy_cache" in message

    def test_unknown_target_suggestion(self):
        with running_daemon(workers=1) as daemon:
            with ServeClient("127.0.0.1", daemon.port) as client:
                with pytest.raises(ServeError) as exc_info:
                    client.run_stream("van", STREAM_OPS)
                assert exc_info.value.code == 2
                assert "did you mean" in str(exc_info.value)


class TestIntrospection:
    def test_ping_stats_experiments_targets(self):
        with running_daemon(workers=1) as daemon:
            with ServeClient("127.0.0.1", daemon.port) as client:
                assert client.ping() is True
                stats = client.stats()
                assert stats["sessions"] == 1
                assert stats["pool"]["workers"] == 1
                experiment_ids = {e["id"] for e in client.experiments()}
                assert "fig1" in experiment_ids
                target_names = {t["name"] for t in client.targets()}
                assert "vans" in target_names

    def test_welcome_reports_protocol_and_limits(self):
        with running_daemon(workers=1, max_active=3,
                            max_queued=5) as daemon:
            with ServeClient("127.0.0.1", daemon.port) as client:
                assert client.welcome["protocol"] == "repro.serve/1"
                assert client.welcome["limits"]["max_active"] == 3
                assert client.welcome["limits"]["max_queued"] == 5
