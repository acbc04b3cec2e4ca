"""One process supervisor for every caller that runs simulation code in
another process: the experiment runner, the litmus campaign, the shard
plane and the serve pool.

:class:`Child` is one forked child plus the parent's end of its pipe,
with one failure vocabulary (:class:`ChildError` carrying the remote
traceback, :class:`ChildDied`, :class:`ChildTimeout`) and a
:meth:`Child.stop` that leaves no process behind on any exit path.
:func:`run_jobs` is the batch policy on top: bounded fan-out, a deadline
per attempt, seed-preserving retries with exponential backoff, and
quarantine once the retries run out.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

#: first-retry delay; attempt ``n`` waits ``BACKOFF_S * 2**(n-1)``
BACKOFF_S = 0.5

#: how long :meth:`Child.stop` waits after SIGTERM before SIGKILL
STOP_GRACE_S = 1.0

_CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None)


class ChildFailure(Exception):
    """The child did not deliver the message the parent waited for."""


class ChildError(ChildFailure):
    """The child's target raised; the message is the remote traceback."""


class ChildDied(ChildFailure):
    """The child exited without sending the message."""

    def __init__(self, exitcode: Optional[int]) -> None:
        super().__init__(f"child exited without reporting "
                         f"(exit code {exitcode})")
        self.exitcode = exitcode


class ChildTimeout(ChildFailure):
    """The child sent nothing before the deadline."""


def _child_main(conn, target: Callable[..., None], args: tuple) -> None:
    try:
        target(conn, *args)
    except BaseException as exc:
        # the formatted traceback, not the exception: exceptions from
        # simulation code do not always unpickle in the parent
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError):
            pass                        # parent gone: it sees ChildDied
        if not isinstance(exc, Exception):
            raise                       # exit/interrupt keep their meaning
    finally:
        conn.close()


class Child:
    """One child process running ``target(conn, *args)``.

    Started with the fork-preferring start method: cheap, and children
    inherit registry mutations the parent made (a test's synthetic
    specs).  ``duplex=False`` gives a report-only pipe; ``duplex=True``
    lets the parent :meth:`send` too.
    """

    def __init__(self, target: Callable[..., None], *args: Any,
                 duplex: bool = False) -> None:
        self._conn, child_conn = _CTX.Pipe(duplex=duplex)
        self._proc = _CTX.Process(target=_child_main,
                                  args=(child_conn, target, args),
                                  daemon=True)
        self._proc.start()
        child_conn.close()
        self.pid: int = self._proc.pid

    def is_alive(self) -> bool:
        return self._proc.is_alive()

    def _died(self) -> ChildDied:
        self._proc.join(STOP_GRACE_S)
        return ChildDied(self._proc.exitcode)

    def recv(self, timeout_s: Optional[float] = None) -> Tuple[str, Any]:
        """The child's next ``(tag, value)`` message.

        Raises :class:`ChildError` for an ``("error", traceback)``
        report, :class:`ChildTimeout` after ``timeout_s`` and
        :class:`ChildDied` when the child exits first — also mid-frame,
        or while a grandchild it forked still holds the pipe open.
        """
        try:
            ready = wait([self._conn, self._proc.sentinel], timeout_s)
            if not ready:
                raise ChildTimeout(f"child {self.pid} sent nothing within "
                                   f"{timeout_s}s")
            if self._conn not in ready and not self._conn.poll():
                raise self._died()
            tag, value = self._conn.recv()
        except (EOFError, OSError):     # OSError: a frame cut short by exit
            raise self._died() from None
        if tag == "error":
            raise ChildError(value)
        return tag, value

    def send(self, message: Any) -> None:
        """Send one message; a child that already exited raises the
        report it left in the pipe instead of the broken pipe."""
        try:
            self._conn.send(message)
        except OSError:
            self.recv(STOP_GRACE_S)
            raise self._died() from None

    def stop(self) -> None:
        """Close the pipe, terminate, kill after the grace, reap.
        Idempotent."""
        self._conn.close()
        self._proc.terminate()
        self._proc.join(STOP_GRACE_S)
        if self._proc.exitcode is None:
            self._proc.kill()
            self._proc.join()


@dataclass(frozen=True)
class Outcome:
    """How one attempt at ``jobs[index]`` ended."""

    index: int
    attempt: int                #: 1-based
    status: str                 #: ``"ok"``, ``"failed"`` or ``"timeout"``
    value: Any                  #: ``fn(job)`` when ok
    error: str                  #: remote traceback or diagnosis otherwise
    elapsed_s: float
    #: backoff before the identical job runs again; ``None`` once the
    #: job has settled (ok, or quarantined after its last retry)
    retry_in_s: Optional[float]


def _call(conn, fn: Callable[[Any], Any], job: Any) -> None:
    conn.send(("ok", fn(job)))


def run_jobs(fn: Callable[[Any], Any], jobs: Sequence[Any],
             workers: int = 1, timeout_s: Optional[float] = None,
             retries: int = 0, backoff_s: float = BACKOFF_S
             ) -> Iterator[Outcome]:
    """Run ``fn(job)`` for every job, one child per attempt.

    At most ``workers`` children run at once, in job order.  An attempt
    that raises, dies or outlives ``timeout_s`` is re-run with the
    identical job after ``backoff_s * 2**(attempt-1)``, up to
    ``retries`` times; after that the job is quarantined.  Yields an
    :class:`Outcome` as each attempt ends (``retry_in_s`` tells whether
    another follows).  Closing the generator early stops every child.
    """
    workers = max(1, workers)
    #: (job index, attempt, monotonic not-before)
    pending = [(index, 1, 0.0) for index in range(len(jobs))]
    #: child -> (job index, attempt, monotonic start)
    running: Dict[Child, Tuple[int, int, float]] = {}
    try:
        while pending or running:
            now = time.monotonic()
            for entry in [e for e in pending if e[2] <= now]:
                if len(running) >= workers:
                    break
                pending.remove(entry)
                running[Child(_call, fn, jobs[entry[0]])] = (
                    entry[0], entry[1], time.monotonic())
            wakeups = [start + timeout_s for _, _, start in running.values()
                       if timeout_s is not None]
            if len(running) < workers:
                wakeups.extend(e[2] for e in pending)
            handles = {h: child for child in running
                       for h in (child._conn, child._proc.sentinel)}
            fired = {handles[h] for h in wait(
                list(handles),
                max(0.0, min(wakeups) - time.monotonic()) if wakeups
                else None)}
            now = time.monotonic()
            for child, (index, attempt, start) in list(running.items()):
                value, error = None, ""
                if child in fired:
                    try:
                        _, value = child.recv(0)
                        status = "ok"
                    except ChildFailure as exc:
                        status, error = "failed", str(exc)
                elif timeout_s is not None and now >= start + timeout_s:
                    status = "timeout"
                    error = (f"exceeded the {timeout_s}s deadline (attempt "
                             f"{attempt}); child terminated")
                else:
                    continue
                del running[child]
                child.stop()
                retry_in_s = None
                if status != "ok" and attempt <= retries:
                    retry_in_s = backoff_s * 2 ** (attempt - 1)
                    pending.append((index, attempt + 1, now + retry_in_s))
                yield Outcome(index, attempt, status, value, error,
                              now - start, retry_in_s)
    finally:
        for child in running:
            child.stop()
