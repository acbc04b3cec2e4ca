"""The ``repro-serve`` asyncio daemon.

One process hosts the TCP listener, the :class:`SessionScheduler`, and
the persistent :class:`WorkerPool`.  Each client connection is a
session (:mod:`repro.serve.session`); its requests are scheduled onto
the pool and the results pushed back over the same connection as
protocol messages (:mod:`repro.serve.protocol`).

Threading model: the asyncio loop owns sockets and sessions; pool
watcher threads settle jobs and re-enter the loop via
``call_soon_threadsafe``, so each connection's writes stay serialized
through its outbound queue.  Shutdown drains the scheduler (in-flight
work settles and its replies go out, new submits get 429), hangs up
every connection and then stops the pool — a clean exit leaves zero
worker processes behind.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from typing import Any, Callable, Dict, Optional

from repro import registry
from repro.common.errors import QuotaExceededError, _suggest
from repro.experiments.exec import DEFAULT_SEED, REGISTRY
from repro.serve import protocol
from repro.serve.log import NULL_LOG, ServeLog
from repro.serve.metrics import (MetricsHTTPServer, ServeMetrics,
                                 render_prometheus)
from repro.serve.pool import WorkerPool
from repro.serve.scheduler import SessionScheduler, TenantQuota
from repro.serve.session import Session, SessionBook
from repro.telemetry.manifest import run_manifest


class ServeDaemon:
    """Long-lived simulation service (sessions over JSON lines)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 2,
                 max_active: int = 2, max_queued: int = 8,
                 job_timeout_s: Optional[float] = None,
                 seed: int = DEFAULT_SEED,
                 log: Optional[ServeLog] = None,
                 metrics_port: Optional[int] = None) -> None:
        self.host = host
        self.port = port
        self.seed = seed
        self.log = log if log is not None else NULL_LOG
        self.pool = WorkerPool(workers=workers, job_timeout_s=job_timeout_s)
        self.scheduler = SessionScheduler(
            self.pool, default_quota=TenantQuota(max_active=max_active,
                                                 max_queued=max_queued))
        self.sessions = SessionBook()
        self.metrics = ServeMetrics(scheduler=self.scheduler,
                                    pool=self.pool,
                                    sessions=self.sessions)
        self._metrics_port = metrics_port
        self._metrics_http: Optional[MetricsHTTPServer] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: daemon-global job ids (event-loop-thread only; no lock)
        self._job_seq = 0
        #: accepted-but-unsettled jobs keyed by job id — the live table
        #: behind ``repro_serve_jobs_in_flight`` and repro-top's rows
        self._jobs: Dict[str, Dict[str, Any]] = {}
        #: outboxes of connections that sent ``watch`` (progress
        #: broadcast); discarded when their connection closes
        self._watchers: set = set()
        #: open connection handler task -> its hang-up callable
        self._connections: Dict[asyncio.Task, Callable[[], None]] = {}

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self._metrics_port is not None:
            self._metrics_http = MetricsHTTPServer(
                self._render_metrics, host=self.host,
                port=self._metrics_port)
        self.log.info("daemon.start", host=self.host, port=self.port,
                      workers=len(self.pool),
                      metrics_port=getattr(self._metrics_http,
                                           "port", None))

    async def shutdown(self, drain_timeout_s: float = 60.0) -> None:
        """Graceful stop: no new connections, drain, end every open
        connection once its replies are out, stop workers."""
        self.log.info("daemon.shutdown", drain_timeout_s=drain_timeout_s)
        if self._server is not None:
            self._server.close()
        if self._metrics_http is not None:
            self._metrics_http.close()
            self._metrics_http = None
        loop = asyncio.get_running_loop()
        # the drain returns after every settled job's reply has been
        # queued on the loop, ahead of this coroutine's resumption
        await loop.run_in_executor(
            None, lambda: self.scheduler.drain(drain_timeout_s))
        # an idle client must not hold the shutdown open (from 3.12.1
        # on, Server.wait_closed() also waits for open connections):
        # every handler sees end of input and exits once its queued
        # replies are written
        connections = dict(self._connections)
        for hang_up in connections.values():
            hang_up()
        await asyncio.gather(*connections)
        if self._server is not None:
            await self._server.wait_closed()
        await loop.run_in_executor(None, self.pool.shutdown)
        self.log.info("daemon.stopped")

    # -- metrics ---------------------------------------------------------

    def collect_metrics(self) -> Dict[str, Any]:
        """The :meth:`ServeMetrics.collect` document plus the live
        in-flight job table (thread-safe: reads a point-in-time copy)."""
        doc = self.metrics.collect()
        doc["jobs"] = {jid: dict(info)
                       for jid, info in list(self._jobs.items())}
        return doc

    def _render_metrics(self) -> str:
        self.metrics.inc("metrics_scrapes_total")
        return render_prometheus(self.collect_metrics())

    # -- per-connection handling ----------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        outbox: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue()
        sender = asyncio.ensure_future(self._send_loop(outbox, writer))
        session: Optional[Session] = None
        task = asyncio.current_task()

        def hang_up() -> None:
            writer.transport.pause_reading()
            reader.feed_eof()

        self._connections[task] = hang_up
        self.metrics.inc("connections_total")
        self.log.debug("conn.open")
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, OSError):
                    break
                if not line:
                    break
                try:
                    message = protocol.decode(line)
                except protocol.MessageFormatError as exc:
                    self.metrics.inc("protocol_errors_total")
                    self.log.warning("protocol.error", error=str(exc))
                    outbox.put_nowait(protocol.encode(
                        protocol.error_message(2, str(exc))))
                    continue
                if session is None and message.get("type") != "hello":
                    # implicit session for hello-less quick clients
                    session = self.sessions.open(
                        str(message.get("tenant", "anon")))
                current = self._handle_message(message, session, outbox)
                if current is None:    # bye: the finally closes session
                    break
                session = current
        finally:
            self._connections.pop(task, None)
            self._watchers.discard(outbox)
            if session is not None:
                self.sessions.close(session)
                self.log.debug("conn.close", session=session.id,
                               tenant=session.tenant)
            outbox.put_nowait(None)
            with contextlib.suppress(Exception):
                await sender
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _send_loop(self, outbox: "asyncio.Queue",
                         writer: asyncio.StreamWriter) -> None:
        while True:
            payload = await outbox.get()
            if payload is None:
                return
            writer.write(payload)
            with contextlib.suppress(ConnectionResetError, OSError):
                await writer.drain()

    # -- message dispatch (runs on the event loop) ----------------------

    def _handle_message(self, message: Dict[str, Any],
                        session: Optional[Session],
                        outbox: "asyncio.Queue") -> Optional[Session]:
        mtype = message.get("type")
        reply = lambda doc: outbox.put_nowait(protocol.encode(doc))  # noqa: E731

        if mtype == "hello":
            if session is None:
                session = self.sessions.open(
                    str(message.get("tenant", "anon")))
            quota = self.scheduler.quota_for(session.tenant)
            reply({"type": "welcome", "protocol": protocol.PROTOCOL,
                   **session.identity(),
                   "limits": {"max_active": quota.max_active,
                              "max_queued": quota.max_queued,
                              "workers": len(self.pool)}})
            return session
        if mtype == "bye":
            reply({"type": "goodbye", **session.identity()})
            return None
        if mtype == "ping":
            reply({"type": "pong", "id": message.get("id")})
            return session
        if mtype == "stats":
            reply({"type": "stats", "id": message.get("id"),
                   "scheduler": self.scheduler.snapshot(),
                   "pool": self.pool.snapshot(),
                   "sessions": len(self.sessions)})
            return session
        if mtype == "metrics":
            self.metrics.inc("metrics_scrapes_total")
            fmt = str(message.get("format", "json"))
            if fmt == "prometheus":
                reply({"type": "metrics", "id": message.get("id"),
                       "format": "prometheus",
                       "body": render_prometheus(self.collect_metrics())})
            elif fmt == "json":
                reply({"type": "metrics", "id": message.get("id"),
                       "format": "json",
                       "data": self.collect_metrics()})
            else:
                self.metrics.inc("protocol_errors_total")
                reply(protocol.error_message(
                    2, f"unknown metrics format {fmt!r}",
                    message.get("id")))
            return session
        if mtype == "watch":
            # broadcast every relayed progress frame to this connection
            self._watchers.add(outbox)
            reply({"type": "watching", "id": message.get("id"),
                   **session.identity()})
            return session
        if mtype == "experiments":
            reply({"type": "experiments", "id": message.get("id"),
                   "items": [{"id": s.id, "section": s.section,
                              "description": s.description,
                              "est_cost": s.est_cost,
                              "targets": list(s.targets)}
                             for s in REGISTRY.values()]})
            return session
        if mtype == "targets":
            reply({"type": "targets", "id": message.get("id"),
                   "items": [{"name": n,
                              "description": registry.spec(n).description,
                              "category": registry.spec(n).category}
                             for n in registry.target_names()]})
            return session
        if mtype in ("run", "stream"):
            known = sorted(protocol.SUBMIT_FIELDS[mtype])
            unknown = sorted(set(message).difference(known))
            if unknown:
                self.metrics.inc("protocol_errors_total")
                self.log.warning("protocol.unknown_field", mtype=mtype,
                                 field=unknown[0], session=session.id,
                                 tenant=session.tenant)
                reply(protocol.error_message(
                    2, f"unknown {mtype} field {unknown[0]!r}"
                       f"{_suggest(unknown[0], known)}"
                       f"; {mtype} fields: {', '.join(known)}",
                    message.get("id")))
                return session
            self._submit(mtype, message, session, outbox)
            return session
        self.metrics.inc("protocol_errors_total")
        self.log.warning("protocol.unknown_type", mtype=str(mtype),
                         session=session.id, tenant=session.tenant)
        reply(protocol.error_message(
            2, f"unknown message type {mtype!r}", message.get("id")))
        return session

    def _submit(self, mtype: str, message: Dict[str, Any],
                session: Session, outbox: "asyncio.Queue") -> None:
        request_id = message.get("id")
        identity = session.identity()
        if mtype == "run":
            job: Dict[str, Any] = {
                "kind": "experiment",
                "experiment": message.get("experiment"),
                "scale": message.get("scale", "smoke"),
                "seed": message.get("seed", self.seed),
                "flight": message.get("flight"),
                "telemetry": message.get("telemetry"),
                "faults": message.get("faults"),
                "session": identity,
            }
        else:
            job = {
                "kind": "stream",
                "target": message.get("target"),
                "overrides": message.get("overrides") or {},
                "ops": message.get("ops") or [],
                "faults": message.get("faults"),
                "session": identity,
            }
        self._job_seq += 1
        job_id = f"j-{self._job_seq}"
        progress_spec = message.get("progress")
        if progress_spec:
            # opt-in: the worker builds a ProgressReporter from this
            # spec; without it the run stays on the zero-cost null path
            job["progress"] = (progress_spec
                               if isinstance(progress_spec, dict)
                               else True)
        loop = self._loop

        def on_settled(outcome) -> None:
            # pool watcher thread -> event loop
            loop.call_soon_threadsafe(
                self._deliver, session, request_id, job_id, job,
                outcome, outbox)

        def on_progress(frame: Dict[str, Any]) -> None:
            # pool watcher thread -> event loop (same re-entry rule as
            # settlement, so frames and the terminal reply stay ordered
            # on the connection's outbox)
            loop.call_soon_threadsafe(
                self._relay_progress, session, request_id, job_id,
                frame, outbox)

        try:
            self.scheduler.submit(
                session.tenant, job, on_settled,
                on_progress=on_progress if progress_spec else None)
        except QuotaExceededError as exc:
            session.rejected += 1
            self.log.warning("job.rejected", session=session.id,
                             tenant=session.tenant, job=job_id,
                             request_id=request_id, error=str(exc))
            outbox.put_nowait(protocol.encode(
                {"type": "rejected", "id": request_id, "code": exc.code,
                 "error": str(exc)}))
            return
        session.submitted += 1
        session.in_flight += 1
        self._jobs[job_id] = {
            "tenant": session.tenant, "session": session.id,
            "kind": job["kind"],
            "what": job.get("experiment") or job.get("target"),
            "frames": 0, "done_requests": 0, "sim_time_ns": 0,
            "phase": None,
        }
        self.log.info("job.accepted", session=session.id,
                      tenant=session.tenant, job=job_id,
                      request_id=request_id, kind=job["kind"],
                      what=self._jobs[job_id]["what"])
        outbox.put_nowait(protocol.encode(
            {"type": "accepted", "id": request_id, "job": job_id}))

    def _relay_progress(self, session: Session, request_id, job_id: str,
                        frame: Dict[str, Any],
                        outbox: "asyncio.Queue") -> None:
        """Fan one non-terminal frame out (event-loop thread).

        The owning connection gets it tagged with the request id so the
        client can route it to the right handler; watchers get a copy
        without the id but with the session identity.
        """
        self.metrics.inc("progress_frames_total")
        info = self._jobs.get(job_id)
        if info is not None:
            info["frames"] += 1
            for key in ("done_requests", "sim_time_ns", "phase"):
                if key in frame:
                    info[key] = frame[key]
        doc = {"type": "progress", "id": request_id, "job": job_id,
               **frame}
        outbox.put_nowait(protocol.encode(doc))
        self.log.debug("job.progress", session=session.id,
                       tenant=session.tenant, job=job_id,
                       worker_pid=frame.get("worker_pid"),
                       done_requests=frame.get("done_requests"),
                       sim_time_ns=frame.get("sim_time_ns"),
                       phase=frame.get("phase"))
        if self._watchers:
            broadcast = {k: v for k, v in doc.items() if k != "id"}
            broadcast.update(session.identity())
            encoded = protocol.encode(broadcast)
            for watcher in list(self._watchers):
                if watcher is not outbox:
                    watcher.put_nowait(encoded)

    def _deliver(self, session: Session, request_id, job_id: str,
                 job: Dict[str, Any], outcome,
                 outbox: "asyncio.Queue") -> None:
        session.in_flight = max(0, session.in_flight - 1)
        self._jobs.pop(job_id, None)
        status, payload = outcome
        self.log.info("job.settled", session=session.id,
                      tenant=session.tenant, job=job_id,
                      request_id=request_id, status=status,
                      worker_pid=payload.get("worker_pid")
                      if isinstance(payload, dict) else None)
        if status == "ok":
            session.completed += 1
            config = {k: v for k, v in job.items()
                      if k not in ("session", "ops", "progress")
                      and v is not None}
            config["ops"] = len(job["ops"]) if "ops" in job else None
            doc: Dict[str, Any] = {
                "type": "result", "id": request_id, "status": "ok",
                "manifest": run_manifest(
                    seed=int(job.get("seed") or self.seed),
                    config={k: v for k, v in config.items()
                            if v is not None},
                    session=session.identity()),
            }
            doc.update(payload)
        elif status == "reject":
            doc = protocol.error_message(
                payload.get("code", 2), payload.get("error", ""),
                request_id)
        elif status == "timeout":
            doc = protocol.error_message(1, payload, request_id)
            doc["timeout"] = True
        else:
            doc = protocol.error_message(1, str(payload), request_id)
        doc["job"] = job_id
        outbox.put_nowait(protocol.encode(doc))


@contextlib.contextmanager
def running_daemon(**kwargs):
    """Run a :class:`ServeDaemon` on a background thread.

    Yields the daemon with ``daemon.port`` resolved; on exit drains,
    stops the pool, and joins the thread.  This is what the integration
    tests and ``repro-serve smoke`` use to host a real daemon inside
    one process.
    """
    daemon = ServeDaemon(**kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(daemon.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("serve daemon failed to start")
    try:
        yield daemon
    finally:
        future = asyncio.run_coroutine_threadsafe(daemon.shutdown(), loop)
        future.result(timeout=60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
