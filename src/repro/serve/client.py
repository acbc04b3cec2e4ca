"""Blocking client for the ``repro-serve`` daemon.

A thin convenience wrapper over the line protocol — a socket, a
read-buffer, and helpers for each request type.  Because the daemon
pushes exactly one terminal message (``result``/``error``/``rejected``)
per submitted request id, the client can run several requests
concurrently on one connection and match replies by id.

    with ServeClient("127.0.0.1", 7421, tenant="team-a") as client:
        reply = client.run_experiment("fig1")
        metrics = reply["results"][0]["metrics"]
"""

from __future__ import annotations

import itertools
import json
import socket
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional)

from repro.common.errors import QuotaExceededError, ReproError
from repro.serve import protocol


class ServeError(ReproError):
    """Terminal ``error`` reply from the daemon; carries its code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


class ServeClient:
    """One session against a running daemon."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7421,
                 tenant: str = "default",
                 timeout_s: Optional[float] = 300.0) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.session: Optional[str] = None
        self.welcome: Dict[str, Any] = {}
        self._ids = itertools.count(1)
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout_s)
        self._rfile = self._sock.makefile("rb")
        #: terminal replies that arrived while waiting for another id
        self._parked: Dict[Any, Dict[str, Any]] = {}
        #: progress callbacks by request id (frames are never parked —
        #: they are dispatched the moment they are read off the socket)
        self._progress_handlers: Dict[Any, Callable[[Dict[str, Any]],
                                                    None]] = {}
        self._hello()

    # -- plumbing --------------------------------------------------------

    def _send(self, message: Dict[str, Any]) -> None:
        self._sock.sendall(protocol.encode(message))

    def _read_message(self) -> Dict[str, Any]:
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def _hello(self) -> None:
        self._send({"type": "hello", "tenant": self.tenant})
        self.welcome = self._read_message()
        self.session = self.welcome.get("session")

    def _wait_for(self, request_id: Any,
                  raise_on_error: bool = True) -> Dict[str, Any]:
        """Read until the terminal reply for ``request_id`` arrives.

        Non-terminal messages are never parked: ``accepted`` is
        skipped, and ``progress`` frames are dispatched to their
        request's ``on_progress`` handler immediately (regardless of
        which id this call is waiting on), so a slow job streams live
        updates even while the caller blocks on a different request.
        """
        while True:
            if request_id in self._parked:
                reply = self._parked.pop(request_id)
            else:
                reply = self._read_message()
                if reply.get("type") == "accepted":
                    continue
                if reply.get("type") == "progress":
                    self._dispatch_progress(reply)
                    continue
                if reply.get("id") != request_id:
                    self._parked[reply.get("id")] = reply
                    continue
            if reply.get("id") == request_id:
                self._progress_handlers.pop(request_id, None)
            if raise_on_error:
                if reply.get("type") == "rejected":
                    raise QuotaExceededError(
                        self.tenant, reply.get("error", "rejected"))
                if reply.get("type") == "error":
                    raise ServeError(int(reply.get("code", 1)),
                                     reply.get("error", "server error"))
            return reply

    def _dispatch_progress(self, frame: Dict[str, Any]) -> None:
        handler = self._progress_handlers.get(frame.get("id"))
        if handler is not None:
            handler(frame)

    # -- requests --------------------------------------------------------

    def submit_experiment(self, experiment: str, scale: str = "smoke",
                          seed: Optional[int] = None,
                          flight: Optional[Dict[str, Any]] = None,
                          telemetry: Optional[Dict[str, Any]] = None,
                          faults: Optional[Dict[str, Any]] = None,
                          progress: Any = None,
                          on_progress: Optional[
                              Callable[[Dict[str, Any]], None]] = None
                          ) -> int:
        """Fire-and-forget submit; returns the request id to wait on.

        ``progress`` opts the job into streaming progress frames —
        ``True`` for defaults or a dict of reporter knobs
        (``interval_ps``, ``min_wall_s``); ``on_progress`` receives
        each frame while :meth:`wait` blocks.  Passing only
        ``on_progress`` implies ``progress=True``.
        """
        request_id = next(self._ids)
        message: Dict[str, Any] = {"type": "run", "id": request_id,
                                   "experiment": experiment,
                                   "scale": scale}
        if seed is not None:
            message["seed"] = seed
        if flight is not None:
            message["flight"] = flight
        if telemetry is not None:
            message["telemetry"] = telemetry
        if faults is not None:
            message["faults"] = faults
        if progress is None and on_progress is not None:
            progress = True
        if progress:
            message["progress"] = (progress if isinstance(progress, dict)
                                   else True)
        if on_progress is not None:
            self._progress_handlers[request_id] = on_progress
        self._send(message)
        return request_id

    def run_experiment(self, experiment: str, scale: str = "smoke",
                       seed: Optional[int] = None,
                       flight: Optional[Dict[str, Any]] = None,
                       telemetry: Optional[Dict[str, Any]] = None,
                       faults: Optional[Dict[str, Any]] = None,
                       raise_on_error: bool = True,
                       progress: Any = None,
                       on_progress: Optional[
                           Callable[[Dict[str, Any]], None]] = None
                       ) -> Dict[str, Any]:
        """Submit a named experiment and block for its result message."""
        request_id = self.submit_experiment(
            experiment, scale, seed, flight, telemetry, faults,
            progress=progress, on_progress=on_progress)
        return self.wait(request_id, raise_on_error=raise_on_error)

    def submit_stream(self, target: str,
                      ops: Iterable[Dict[str, Any]],
                      overrides: Optional[Dict[str, Any]] = None,
                      faults: Optional[Dict[str, Any]] = None,
                      progress: Any = None,
                      on_progress: Optional[
                          Callable[[Dict[str, Any]], None]] = None
                      ) -> int:
        """Fire-and-forget stream submit; ``faults`` is a
        ``repro.faultplan/1`` plan document executed against the
        stream (the result then carries the fault report, persistence
        audit included — the litmus thin-client path)."""
        request_id = next(self._ids)
        message: Dict[str, Any] = {"type": "stream", "id": request_id,
                                   "target": target,
                                   "overrides": overrides or {},
                                   "ops": list(ops)}
        if faults is not None:
            message["faults"] = faults
        if progress is None and on_progress is not None:
            progress = True
        if progress:
            message["progress"] = (progress if isinstance(progress, dict)
                                   else True)
        if on_progress is not None:
            self._progress_handlers[request_id] = on_progress
        self._send(message)
        return request_id

    def run_stream(self, target: str, ops: Iterable[Dict[str, Any]],
                   overrides: Optional[Dict[str, Any]] = None,
                   faults: Optional[Dict[str, Any]] = None,
                   raise_on_error: bool = True,
                   progress: Any = None,
                   on_progress: Optional[
                       Callable[[Dict[str, Any]], None]] = None
                   ) -> Dict[str, Any]:
        """Submit a raw request stream and block for its result."""
        request_id = self.submit_stream(target, ops, overrides,
                                        faults=faults,
                                        progress=progress,
                                        on_progress=on_progress)
        return self.wait(request_id, raise_on_error=raise_on_error)

    def follow(self, request_id: int,
               raise_on_error: bool = True
               ) -> Iterator[Dict[str, Any]]:
        """Iterate a submitted request's messages as they arrive.

        Yields every ``progress`` frame for ``request_id`` and finally
        the terminal reply (its ``type`` is ``result``/``error``/
        ``rejected``), then stops.  Frames for *other* requests still
        reach their own ``on_progress`` handlers; other requests'
        terminal replies are parked as usual.
        """
        while True:
            if request_id in self._parked:
                reply = self._parked.pop(request_id)
            else:
                reply = self._read_message()
                if reply.get("type") == "accepted":
                    continue
                if reply.get("type") == "progress":
                    if reply.get("id") == request_id:
                        yield reply
                    else:
                        self._dispatch_progress(reply)
                    continue
                if reply.get("id") != request_id:
                    self._parked[reply.get("id")] = reply
                    continue
            self._progress_handlers.pop(request_id, None)
            if raise_on_error:
                if reply.get("type") == "rejected":
                    raise QuotaExceededError(
                        self.tenant, reply.get("error", "rejected"))
                if reply.get("type") == "error":
                    raise ServeError(int(reply.get("code", 1)),
                                     reply.get("error", "server error"))
            yield reply
            return

    def wait(self, request_id: int,
             raise_on_error: bool = True) -> Dict[str, Any]:
        """Block until the terminal reply for a submitted id arrives."""
        return self._wait_for(request_id, raise_on_error=raise_on_error)

    def _inline(self, mtype: str) -> Dict[str, Any]:
        request_id = next(self._ids)
        self._send({"type": mtype, "id": request_id})
        return self._wait_for(request_id)

    def ping(self) -> bool:
        return self._inline("ping").get("type") == "pong"

    def stats(self) -> Dict[str, Any]:
        return self._inline("stats")

    def metrics(self, format: str = "json") -> Any:
        """Daemon metrics: a dict (``json``) or exposition text
        (``prometheus``)."""
        request_id = next(self._ids)
        self._send({"type": "metrics", "id": request_id,
                    "format": format})
        reply = self._wait_for(request_id)
        return reply["body"] if format == "prometheus" else reply["data"]

    def experiments(self) -> List[Dict[str, Any]]:
        return self._inline("experiments")["items"]

    def targets(self) -> List[Dict[str, Any]]:
        return self._inline("targets")["items"]

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        try:
            self._send({"type": "bye"})
            self._sock.settimeout(5.0)
            try:
                while True:
                    reply = self._read_message()
                    if reply.get("type") == "goodbye":
                        break
            except (ConnectionError, socket.timeout, OSError):
                pass
        except OSError:
            pass
        finally:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
