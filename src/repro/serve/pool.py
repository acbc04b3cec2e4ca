"""Persistent watchdogged worker pool for the serve daemon.

Unlike the batch runner's process-per-experiment scheduler
(:func:`repro.common.supervise.run_jobs`), serving wants workers that
*stay up*: each worker process enables the target registry's warm
cache at startup, so consecutive jobs against the same target reuse a
built system (``build → acquire → run → reset → release``) instead of
paying construction again.

Each worker is one :class:`repro.common.supervise.Child` plus one
parent-side watcher thread:

* jobs travel over a private duplex pipe; results come back as
  ``("ok", payload)`` / ``("reject", {code, error})`` (a
  :class:`~repro.common.errors.ReproError` — usage-level, message
  preserved) / ``("error", traceback)`` (crash) / ``("timeout", msg)``;
* a job whose spec carries a ``"progress"`` entry streams non-terminal
  ``("progress", frame)`` tuples over the same pipe while it runs (a
  :class:`~repro.progress.ProgressReporter` inside the worker emits
  them); the watcher hands each frame to the submitter's
  ``on_progress`` callback and keeps waiting for the terminal outcome;
* the watcher enforces ``job_timeout_s`` — a wedged worker is stopped
  (SIGTERM, then SIGKILL after a grace) and respawned, and the job
  settles as a timeout;
* a worker that dies mid-job (OOM-kill, segfault, ``os._exit``) is
  detected, respawned, and the job settles as an error — the pool's
  capacity never degrades.

The pool itself does no queueing policy: :class:`SessionScheduler`
owns fairness/quotas and only submits while :meth:`WorkerPool.free_slots`
is positive.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ReproError
from repro.common.supervise import (Child, ChildDied, ChildError,
                                    ChildFailure, ChildTimeout)
from repro.engine.stats import Histogram

#: outcome tuples handed to completion callbacks
Outcome = Tuple[str, Any]


def _make_reporter(job: Dict[str, Any],
                   emit: Callable[[Dict[str, Any]], None]):
    """A :class:`ProgressReporter` for the job's ``progress`` spec, or
    ``None`` (the zero-cost default) when the client didn't ask."""
    spec = job.get("progress")
    if not spec:                       # absent / False / null: zero-cost
        return None
    from repro.progress import ProgressReporter
    kwargs = dict(spec) if isinstance(spec, dict) else {}
    allowed = {"interval_ps", "min_wall_s"}
    return ProgressReporter(
        emit=emit,
        **{k: v for k, v in kwargs.items() if k in allowed})


def _execute_job(job: Dict[str, Any],
                 emit_progress: Callable[[Dict[str, Any]], None]
                 ) -> Dict[str, Any]:
    """Run one job inside the worker process; returns a JSON-safe doc.

    ``emit_progress`` ships one non-terminal progress frame up the
    worker pipe; it is only exercised when the job asked for progress.

    Imports live here (not module top level) so the parent can fork
    workers before the heavyweight experiment modules are loaded.
    """
    from repro.experiments import exec as exec_core
    from repro.experiments.export import result_to_dict

    kind = job.get("kind")
    if kind == "experiment":
        from repro.experiments.common import Scale
        results = exec_core.run_experiment(
            job["experiment"], Scale(job.get("scale", "smoke")),
            int(job.get("seed", exec_core.DEFAULT_SEED)),
            flight=exec_core.make_flight_recorder(job.get("flight")),
            telemetry=job.get("telemetry"), faults=job.get("faults"),
            session=job.get("session"),
            progress=_make_reporter(job, emit_progress))
        return {"results": [result_to_dict(r) for r in results]}
    if kind == "stream":
        stream = exec_core.run_stream(
            job["target"], job.get("ops", ()),
            overrides=job.get("overrides"), faults=job.get("faults"),
            session=job.get("session"),
            progress=_make_reporter(job, emit_progress))
        return {"stream": stream}
    if kind == "ping":
        return {"pong": True}
    if kind == "_test_sleep":          # watchdog diagnostics (tests)
        time.sleep(float(job.get("seconds", 60.0)))
        return {"slept": True}
    if kind == "_test_die":            # crash-respawn diagnostics (tests)
        import os
        os._exit(17)
    raise ReproError(f"unknown job kind {kind!r}")


def _worker_main(conn, warm_cache_limit: int) -> None:
    """Worker-process entry: serve jobs until the pipe closes.

    The warm cache lives *here*, in the worker — a parent-side cache
    would be useless because systems never cross the process boundary.
    """
    import os

    from repro import registry
    if warm_cache_limit > 0:
        registry.enable_warm_cache(warm_cache_limit)
    pid = os.getpid()

    def emit_progress(frame: Dict[str, Any]) -> None:
        # non-terminal frame; losing one (dead parent) is never fatal —
        # the terminal send below will notice the broken pipe
        try:
            conn.send(("progress", {**frame, "worker_pid": pid}))
        except (OSError, BrokenPipeError, ValueError):
            pass

    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):    # the pool closed the pipe: stop
            return
        try:
            payload = _execute_job(job, emit_progress)
            payload["warm_cache"] = registry.warm_cache_stats()
            payload["worker_pid"] = pid
            message: Outcome = ("ok", payload)
        except ReproError as exc:
            message = ("reject", {"code": getattr(exc, "code", 2) or 2,
                                  "error": str(exc)})
        except BaseException:
            message = ("error", traceback.format_exc())
        conn.send(message)             # a dead parent ends the worker


class _Worker:
    """One pooled process and the parent-side thread that watches it.

    Until the pool closes, only the watcher thread sends to, receives
    from, or replaces ``child``; from then on only
    :meth:`WorkerPool.shutdown` stops it.
    """

    def __init__(self, pool: "WorkerPool", index: int) -> None:
        self.pool = pool
        self.index = index
        self.jobs: "queue.Queue" = queue.Queue()
        #: True while a job is executing (read under the pool lock for
        #: the metrics snapshot; written only by this watcher thread)
        self.busy = False
        self.jobs_done = 0
        #: last cumulative warm-cache stats doc this worker reported
        self.warm_cache: Dict[str, int] = {}
        self._spawn()
        self.thread = threading.Thread(
            target=self._loop, name=f"serve-worker-{index}", daemon=True)
        self.thread.start()

    def _spawn(self) -> None:
        self.child = Child(_worker_main, self.pool.warm_cache_limit,
                           duplex=True)
        self.pool.stats["spawned"] += 1

    def _respawn(self) -> None:
        if self.pool._closed:          # shutdown stops the last child
            return
        self.child.stop()
        self._spawn()
        self.pool.stats["respawned"] += 1
        # the fresh process starts with a cold warm cache by design
        self.warm_cache = {}

    def _loop(self) -> None:
        while True:
            item = self.jobs.get()
            if item is None:
                return
            job, callback, timeout_s, on_progress = item
            self.busy = True
            started = time.monotonic()
            outcome = self._execute(job, timeout_s, on_progress)
            self.busy = False
            self.pool._settled(self, outcome[0],
                               time.monotonic() - started)
            callback(outcome)

    def _execute(self, job, timeout_s: Optional[float],
                 on_progress: Optional[Callable[[Dict[str, Any]], None]]
                 ) -> Outcome:
        try:
            self.child.send(job)
        except ChildFailure:
            # the idle worker had exited; start over on a fresh one
            self._respawn()
            try:
                self.child.send(job)
            except ChildFailure:
                return ("error", "worker pipe unusable after respawn")
        deadline = (time.monotonic() + timeout_s) if timeout_s else None
        while True:
            try:
                # the watchdog deadline is the job's wall budget —
                # progress frames do not extend it
                message = self.child.recv(
                    None if deadline is None
                    else max(0.0, deadline - time.monotonic()))
            except ChildError as exc:
                return ("error", str(exc))
            except ChildDied as exc:
                self._respawn()
                return ("error",
                        f"worker died mid-job (exit code {exc.exitcode})")
            except ChildTimeout:
                self._respawn()
                return ("timeout",
                        f"job exceeded {timeout_s}s watchdog; "
                        f"worker terminated and respawned")
            if message[0] == "progress":
                # non-terminal frame: forward and keep waiting
                if on_progress is not None:
                    try:
                        on_progress(message[1])
                    except Exception:
                        pass
                continue
            if message[0] == "ok":
                payload = message[1]
                if isinstance(payload, dict) and "warm_cache" in payload:
                    self.warm_cache = dict(payload["warm_cache"])
            return message


class WorkerPool:
    """Fixed-size pool of persistent warm-cache worker processes."""

    def __init__(self, workers: int = 2, warm_cache: int = 8,
                 job_timeout_s: Optional[float] = None) -> None:
        self.warm_cache_limit = warm_cache
        self.job_timeout_s = job_timeout_s
        self.stats: Dict[str, int] = {
            "spawned": 0, "respawned": 0, "completed": 0,
            "errors": 0, "timeouts": 0, "rejects": 0,
        }
        self._started = time.monotonic()
        #: settled-job wall time in milliseconds (drives the
        #: ``repro_serve_job_wall_seconds`` summary series)
        self._job_ms = Histogram("pool.job_ms")
        self._lock = threading.Lock()
        self._workers: List[_Worker] = [
            _Worker(self, i) for i in range(max(1, workers))]
        self._idle: List[_Worker] = list(self._workers)
        self._closed = False

    # -- scheduler interface --------------------------------------------

    def free_slots(self) -> int:
        with self._lock:
            return 0 if self._closed else len(self._idle)

    def submit(self, job: Dict[str, Any],
               callback: Callable[[Outcome], None],
               timeout_s: Optional[float] = None,
               on_progress: Optional[Callable[[Dict[str, Any]], None]]
               = None) -> None:
        """Hand a job to an idle worker; ``callback(outcome)`` fires on
        the worker's watcher thread when it settles, and
        ``on_progress(frame)`` fires on the same thread for every
        non-terminal progress frame the job emits.  Raises
        :class:`RuntimeError` when no worker is idle — the scheduler
        guards with :meth:`free_slots` under its own lock and is the
        pool's only submitter."""
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is shut down")
            if not self._idle:
                raise RuntimeError("no idle worker")
            worker = self._idle.pop()
        worker.jobs.put((job, callback,
                         self.job_timeout_s if timeout_s is None
                         else timeout_s, on_progress))

    def _settled(self, worker: _Worker, status: str,
                 wall_s: float) -> None:
        with self._lock:
            key = {"ok": "completed", "reject": "rejects",
                   "timeout": "timeouts"}.get(status, "errors")
            self.stats[key] += 1
            worker.jobs_done += 1
            self._job_ms.record(int(wall_s * 1000))
            if not self._closed:
                self._idle.append(worker)

    # -- lifecycle -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._workers)

    def processes_alive(self) -> int:
        """Live worker processes (0 after a clean shutdown)."""
        return sum(1 for w in self._workers if w.child.is_alive())

    def snapshot(self) -> Dict[str, Any]:
        """One internally consistent view of the pool.

        Everything — outcome counters, idle/busy occupancy, per-worker
        states, the merged warm-cache stats, and the job wall-time
        histogram — is read under one acquisition of the pool lock, so
        a ``stats``/``metrics`` reply can never show e.g. more busy
        workers than settled jobs explain.  ``uptime_s`` comes from a
        monotonic start time, immune to wall-clock steps.
        """
        with self._lock:
            snap: Dict[str, Any] = dict(self.stats)
            snap["workers"] = len(self._workers)
            snap["idle"] = len(self._idle)
            snap["busy"] = sum(1 for w in self._workers if w.busy)
            snap["alive"] = sum(1 for w in self._workers
                                if w.child.is_alive())
            snap["uptime_s"] = time.monotonic() - self._started
            snap["job_ms"] = self._job_ms.as_stats()
            warm: Dict[str, int] = {}
            for worker in self._workers:
                for key, value in worker.warm_cache.items():
                    warm[key] = warm.get(key, 0) + int(value)
            snap["warm_cache"] = warm
            snap["worker_states"] = [
                {"index": w.index, "pid": w.child.pid,
                 "alive": w.child.is_alive(), "busy": w.busy,
                 "jobs_done": w.jobs_done}
                for w in self._workers]
        return snap

    def shutdown(self, timeout_s: float = 30.0) -> None:
        """Stop every worker thread and process; idempotent.

        Jobs already running settle first (their watcher threads finish
        the in-flight execution before seeing the sentinel), so callers
        should drain the scheduler before shutting the pool down.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._idle.clear()
        for worker in self._workers:
            worker.jobs.put(None)
        deadline = time.monotonic() + timeout_s
        for worker in self._workers:
            worker.thread.join(timeout=max(0.1, deadline - time.monotonic()))
        # a watcher still running holds a job wedged past the deadline;
        # stopping its child wakes it with ChildDied
        for worker in self._workers:
            worker.child.stop()
