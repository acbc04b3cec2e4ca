"""End-to-end daemon tests: real sockets, real workers, many sessions.

The acceptance bar for the serve engine: sustain at least 8 concurrent
client sessions, schedule them fairly (every tenant's first job
dispatched before any tenant's second), settle everything, and shut
down without leaving a worker process behind — also when the daemon
CLI is stopped by SIGTERM.
"""

from __future__ import annotations

import contextlib
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
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
        with running_daemon(workers=1, max_active=1,
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

    def test_unknown_stream_field_rejected(self):
        """A field the protocol does not define is refused, not dropped:
        a stale client asking for ``shards`` must not get a plain
        chained result back."""
        with running_daemon(workers=1) as daemon:
            with ServeClient("127.0.0.1", daemon.port) as client:
                request_id = next(client._ids)
                client._send({"type": "stream", "id": request_id,
                              "target": "vans", "ops": STREAM_OPS,
                              "shards": 2})
                reply = client._wait_for(request_id,
                                         raise_on_error=False)
                assert reply["type"] == "error"
                assert reply["code"] == 2
                assert "'shards'" in reply["error"]
                assert daemon.collect_metrics()["counters"][
                    "protocol_errors_total"] == 1
                assert daemon.scheduler.snapshot()["submitted"] == 0

    def test_unknown_run_field_suggests_closest(self):
        with running_daemon(workers=1) as daemon:
            with ServeClient("127.0.0.1", daemon.port) as client:
                request_id = next(client._ids)
                client._send({"type": "run", "id": request_id,
                              "experiment": "fig1", "sede": 7})
                with pytest.raises(ServeError) as exc_info:
                    client.wait(request_id)
                assert exc_info.value.code == 2
                assert "'sede'; did you mean 'seed'?" in str(exc_info.value)

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


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@contextlib.contextmanager
def _daemon_cli(*args: str):
    """``repro-serve daemon --port 0 --workers 1 *args`` as a subprocess;
    yields ``(process, port)`` and kills whatever is left afterwards."""
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.tools.serve_cli", "daemon",
         "--port", "0", "--workers", "1", "--log-level", "off", *args],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        assert ready, "daemon never printed its address"
        match = re.search(r":(\d+) ", proc.stdout.readline())
        assert match, "daemon did not report a port"
        yield proc, int(match.group(1))
    finally:
        # the daemon and its workers share one process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)
        proc.stdout.close()


def _terminate(proc, worker: int) -> None:
    """SIGTERM the daemon; it must exit and take ``worker`` with it."""
    proc.send_signal(signal.SIGTERM)
    proc.wait(timeout=60)
    deadline = time.monotonic() + 10
    while _alive(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(worker), f"worker {worker} outlived the daemon"


class TestDaemonCli:
    def test_sigterm_shuts_the_worker_pool_down(self):
        """``repro-serve daemon`` stopped by SIGTERM exits and takes its
        pool worker with it, as on SIGINT; no worker is left running
        under PID 1."""
        with _daemon_cli() as (proc, port):
            with ServeClient("127.0.0.1", port) as client:
                states = client.metrics()["pool"]["worker_states"]
            worker = states[0]["pid"]
            assert _alive(worker)
            _terminate(proc, worker)

    def test_respawned_worker_keeps_the_default_sigterm(self):
        """A worker forked after the daemon took over SIGTERM must still
        die on the watchdog's SIGTERM without stopping the daemon."""
        endless = [{"op": "read", "count": 10**8, "stride": 64}]
        with _daemon_cli("--job-timeout", "1") as (proc, port):
            with ServeClient("127.0.0.1", port) as client:
                # the first timeout respawns the worker forked before the
                # handler; the second stops the one forked after it
                for _ in range(2):
                    reply = client.wait(client.submit_stream(
                        "vans", endless), raise_on_error=False)
                    assert reply.get("timeout") is True
                assert proc.poll() is None, "daemon stopped with the worker"
                assert client.ping() is True
                pool = client.stats()["pool"]
            assert pool["respawned"] == 2
            _terminate(proc, pool["worker_states"][0]["pid"])
