"""The process supervisor's contract, tested once, plus one regression
test per caller for the failure paths its hand-written predecessors
got wrong (a report cut short by the child's exit, a child that
ignores SIGTERM)."""

import json
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.common.supervise import (
    STOP_GRACE_S,
    Child,
    ChildDied,
    ChildError,
    ChildTimeout,
    run_jobs,
)


@pytest.fixture(autouse=True)
def no_live_children():
    yield
    assert multiprocessing.active_children() == []


def _wait_exit(child, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while child.is_alive() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not child.is_alive()


def _truncate_report():
    """Called inside a child: write a frame header promising 100000
    bytes, deliver one, and exit — the parent reads a frame cut short."""
    frame = sys._getframe(1)
    while "conn" not in frame.f_locals:
        frame = frame.f_back
    os.write(frame.f_locals["conn"].fileno(),
             struct.pack("!i", 100000) + b"x")
    os._exit(0)


# -- Child -------------------------------------------------------------------

def _echo(conn):
    while True:
        try:
            tag, value = conn.recv()
        except EOFError:
            return
        conn.send((tag, value * 2))


def _raise(conn, message):
    raise RuntimeError(message)


def _sleep(conn, seconds):
    time.sleep(seconds)


def _stubborn(conn):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send(("ready", os.getpid()))
    time.sleep(60)


def _report_then_exit(conn):
    conn.send(("error", "Traceback: boom"))


def _truncated(conn):
    _truncate_report()


def test_message_round_trip():
    child = Child(_echo, duplex=True)
    try:
        child.send(("n", 21))
        assert child.recv(10.0) == ("n", 42)
        child.send(("s", "ab"))
        assert child.recv(10.0) == ("s", "abab")
    finally:
        child.stop()


def test_remote_traceback_is_carried():
    child = Child(_raise, "deliberate kaboom")
    try:
        with pytest.raises(ChildError) as info:
            child.recv(10.0)
    finally:
        child.stop()
    assert "RuntimeError: deliberate kaboom" in str(info.value)
    assert "_raise" in str(info.value)           # real remote frames


def test_sigkilled_child_raises_child_died():
    child = Child(_sleep, 60)
    try:
        os.kill(child.pid, signal.SIGKILL)
        with pytest.raises(ChildDied) as info:
            child.recv(10.0)
        assert info.value.exitcode == -signal.SIGKILL
    finally:
        child.stop()


def test_truncated_frame_raises_child_died():
    child = Child(_truncated)
    try:
        with pytest.raises(ChildDied) as info:
            child.recv(10.0)
        assert info.value.exitcode == 0
    finally:
        child.stop()


def test_missed_deadline_raises_child_timeout():
    child = Child(_sleep, 60)
    try:
        start = time.monotonic()
        with pytest.raises(ChildTimeout):
            child.recv(0.2)
        assert time.monotonic() - start < 5.0
    finally:
        child.stop()


def test_stop_removes_a_child_that_ignores_sigterm():
    child = Child(_stubborn)
    assert child.recv(10.0) == ("ready", child.pid)
    start = time.monotonic()
    child.stop()
    assert time.monotonic() - start < STOP_GRACE_S + 5.0
    assert not child.is_alive()
    with pytest.raises(ProcessLookupError):
        os.kill(child.pid, 0)
    child.stop()                                 # idempotent


def test_send_to_exited_child_raises_its_report():
    # A child that fails before the parent's first send reports and
    # closes its end; the send hits a broken pipe and must surface the
    # report instead.
    child = Child(_report_then_exit, duplex=True)
    try:
        _wait_exit(child)
        with pytest.raises(ChildError, match="Traceback: boom"):
            child.send(("epoch", 0))
    finally:
        child.stop()


# -- run_jobs ----------------------------------------------------------------

def _job(kind):
    if kind == "ok":
        return "fine"
    if kind == "raise":
        raise ValueError("job raised")
    if kind == "hang":
        time.sleep(60)
    if kind == "die":
        os._exit(7)


def test_run_jobs_settles_ok_raising_hung_and_dying_jobs():
    jobs = ["ok", "raise", "hang", "die"]
    outcomes = list(run_jobs(_job, jobs, workers=4, timeout_s=2.0))
    by_job = {jobs[o.index]: o for o in outcomes}
    assert len(outcomes) == 4
    assert all(o.retry_in_s is None and o.attempt == 1 for o in outcomes)
    assert by_job["ok"].status == "ok" and by_job["ok"].value == "fine"
    assert by_job["raise"].status == "failed"
    assert "ValueError: job raised" in by_job["raise"].error
    assert by_job["hang"].status == "timeout"
    assert by_job["hang"].elapsed_s < 2.0 + STOP_GRACE_S + 5.0
    assert by_job["die"].status == "failed"
    assert "exit code 7" in by_job["die"].error


def _record_and_raise(job):
    with open(job["log"], "a") as log:
        log.write(json.dumps(job) + "\n")
    raise RuntimeError("still broken")


def test_retries_resend_the_identical_job_then_quarantine(tmp_path):
    job = {"log": str(tmp_path / "calls.jsonl"), "seed": 1234}
    outcomes = list(run_jobs(_record_and_raise, [job], retries=2,
                             backoff_s=0.01))
    assert [o.attempt for o in outcomes] == [1, 2, 3]
    assert [o.retry_in_s for o in outcomes] == [0.01, 0.02, None]
    assert all(o.status == "failed" for o in outcomes)
    assert "still broken" in outcomes[-1].error
    calls = (tmp_path / "calls.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in calls] == [job] * 3


def test_closing_run_jobs_early_stops_its_children():
    jobs = iter(run_jobs(_job, ["ok", "hang", "hang"], workers=3))
    assert next(jobs).status == "ok"
    jobs.close()


# -- caller-level regressions ------------------------------------------------

def test_litmus_batch_dying_mid_report_settles_into_failures(monkeypatch):
    from repro.litmus import campaign

    parent = os.getpid()

    def run_one(doc, client=None):
        assert os.getpid() != parent
        _truncate_report()

    monkeypatch.setattr(campaign, "_run_one", run_one)
    report = campaign.run_campaign(3, 4, workers=2, retries=0)
    assert report["completed"] == 0
    assert report["failed"] == 4
    assert all("exit code 0" in f["error"] for f in report["failures"])
    assert report["exit_code"] == 1


_STUBBORN_SPEC = """
import os, signal, time
from repro.experiments.common import ExperimentResult

def run_stubborn(scale):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    with open({pidfile!r}, "w") as out:
        out.write(str(os.getpid()))
    time.sleep(300)
    return ExperimentResult(experiment="stubborn", title="never returns")
"""


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_runner_timeout_removes_a_child_that_ignores_sigterm(tmp_path):
    pidfile = tmp_path / "stubborn.pid"
    script = textwrap.dedent(_STUBBORN_SPEC.format(pidfile=str(pidfile))) \
        + textwrap.dedent("""
        import json, multiprocessing
        from repro.experiments.common import Scale
        from repro.experiments.runner import REGISTRY, _run_parallel, _spec
        REGISTRY["stubborn"] = _spec("stubborn", run_stubborn, "test",
                                     "ignores SIGTERM", 0.1, [])
        start = time.monotonic()
        by_id = _run_parallel(["stubborn"], Scale.SMOKE, 42, workers=1,
                              timeout_s=1.0)
        print(json.dumps({
            "status": by_id["stubborn"][0][0].status,
            "elapsed_s": time.monotonic() - start,
            "children": len(multiprocessing.active_children())}))
        """)
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the runner hung on a child that ignores SIGTERM")
    finally:
        pid = int(pidfile.read_text()) if pidfile.exists() else None
        leaked = pid is not None and _alive(pid)
        if leaked:
            os.kill(pid, signal.SIGKILL)
    assert proc.returncode == 0
    doc = json.loads(out.strip().splitlines()[-1])
    assert doc["status"] == "timeout"
    assert doc["elapsed_s"] < 1.0 + STOP_GRACE_S + 2.0
    assert doc["children"] == 0
    assert pid is not None and not leaked


def test_serve_pool_respawn_leaves_no_orphan():
    from repro.experiments.common import ExperimentResult
    from repro.experiments.runner import REGISTRY, _spec
    from repro.serve.pool import WorkerPool

    def run_stubborn(scale):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(300)
        return ExperimentResult(experiment="stubborn", title="never")

    REGISTRY["stubborn"] = _spec("stubborn", run_stubborn, "test",
                                 "ignores SIGTERM", 0.1, [])
    pool = None
    try:
        pool = WorkerPool(workers=1, warm_cache=0)
        pid = pool.snapshot()["worker_states"][0]["pid"]
        settled = threading.Event()
        box = []

        def done(outcome):
            box.append(outcome)
            settled.set()

        pool.submit({"kind": "experiment", "experiment": "stubborn"}, done,
                    timeout_s=1.0)
        assert settled.wait(30.0)
        assert box[0][0] == "timeout"
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            pass
        else:
            os.kill(pid, signal.SIGKILL)
            pytest.fail(f"worker {pid} outlived its respawn")
        assert pool.processes_alive() == 1
    finally:
        REGISTRY.pop("stubborn", None)
        if pool is not None:
            pool.shutdown()
            assert pool.processes_alive() == 0
