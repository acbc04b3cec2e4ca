"""Daemon metrics registry and Prometheus text exposition.

:class:`ServeMetrics` is the daemon's single observability aggregation
point.  It owns the daemon-level event counters (connections, protocol
errors, progress frames relayed) and, on :meth:`~ServeMetrics.collect`,
folds in one internally consistent snapshot from each subsystem — the
scheduler (queue depths, per-tenant fairness series), the worker pool
(worker states, job wall-time histogram, merged warm-cache stats), and
the session book.  The same collected document backs three consumers:

* the ``metrics`` protocol verb in JSON form (``repro-top``, tests);
* :func:`render_prometheus` — text exposition format 0.0.4, all series
  under the ``repro_serve_`` prefix, for scrape-based monitoring (the
  daemon can also serve it over plain HTTP ``GET /metrics``);
* :func:`parse_exposition` — a strict parser/validator used by the
  tests and the CI serve-smoke gate to prove the exposition is
  well-formed (``# TYPE`` before samples, legal names, float values,
  no duplicate samples) without needing a Prometheus client library.
"""

from __future__ import annotations

import re
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: legal Prometheus metric-name shape (also used by the validator)
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_TYPES = ("counter", "gauge", "summary", "histogram", "untyped")


def _sanitize(fragment: str) -> str:
    """Fold an arbitrary key into a legal metric-name fragment."""
    out = re.sub(r"[^a-zA-Z0-9_]", "_", str(fragment))
    return out if out and not out[0].isdigit() else "_" + out


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


class ServeMetrics:
    """Aggregates daemon counters with subsystem snapshots.

    The daemon increments event counters via :meth:`inc` from the event
    loop and watcher threads; :meth:`collect` can therefore be called
    from any thread (counter reads are taken under the same lock the
    writers use, and each subsystem snapshot is internally consistent
    by its own contract).
    """

    def __init__(self, scheduler=None, pool=None,
                 sessions=None) -> None:
        self._scheduler = scheduler
        self._pool = pool
        self._sessions = sessions
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self.counters: Dict[str, int] = {
            "connections_total": 0,
            "protocol_errors_total": 0,
            "progress_frames_total": 0,
            "metrics_scrapes_total": 0,
        }

    def inc(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + by

    # -- collection ------------------------------------------------------

    def collect(self) -> Dict[str, Any]:
        """One JSON-safe document covering every observable subsystem."""
        with self._lock:
            counters = dict(self.counters)
        doc: Dict[str, Any] = {
            "uptime_s": time.monotonic() - self._started,
            "counters": counters,
        }
        if self._sessions is not None:
            doc["sessions"] = len(self._sessions)
        if self._scheduler is not None:
            doc["scheduler"] = self._scheduler.snapshot()
        if self._pool is not None:
            doc["pool"] = self._pool.snapshot()
        return doc

    def prometheus(self) -> str:
        """Current state rendered as Prometheus text exposition."""
        return render_prometheus(self.collect())


# -- rendering -----------------------------------------------------------

class _Writer:
    """Accumulates families in declaration order, one TYPE per family."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._declared: Dict[str, str] = {}

    def family(self, name: str, mtype: str, help_text: str) -> None:
        if name in self._declared:
            return
        self._declared[name] = mtype
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {mtype}")

    def sample(self, name: str, value: Any,
               labels: Optional[Dict[str, str]] = None,
               suffix: str = "") -> None:
        try:
            number = float(value)
        except (TypeError, ValueError):
            return
        if labels:
            rendered = ",".join(
                f'{k}="{_escape_label(v)}"' for k, v in labels.items())
            self.lines.append(f"{name}{suffix}{{{rendered}}} {number:g}")
        else:
            self.lines.append(f"{name}{suffix} {number:g}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_prometheus(doc: Dict[str, Any]) -> str:
    """Render a :meth:`ServeMetrics.collect` document as exposition text.

    Pure function of the collected document so tests can render golden
    snapshots without a live daemon.
    """
    w = _Writer()

    w.family("repro_serve_uptime_seconds", "gauge",
             "Daemon uptime in seconds.")
    w.sample("repro_serve_uptime_seconds", doc.get("uptime_s", 0.0))

    if "sessions" in doc:
        w.family("repro_serve_sessions", "gauge",
                 "Currently open client sessions.")
        w.sample("repro_serve_sessions", doc["sessions"])

    counters = doc.get("counters", {})
    helps = {
        "connections_total": "Client connections accepted.",
        "protocol_errors_total":
            "Malformed or unknown protocol messages received.",
        "progress_frames_total":
            "Non-terminal progress frames relayed to clients.",
        "metrics_scrapes_total": "Metrics collections served.",
    }
    for key in sorted(counters):
        name = f"repro_serve_{_sanitize(key)}"
        w.family(name, "counter", helps.get(key, f"Daemon counter {key}."))
        w.sample(name, counters[key])

    sched = doc.get("scheduler")
    if sched:
        w.family("repro_serve_scheduler_jobs_total", "counter",
                 "Scheduler job events by stage.")
        for event in ("submitted", "dispatched", "completed", "rejected"):
            if event in sched:
                w.sample("repro_serve_scheduler_jobs_total", sched[event],
                         {"event": event})
        w.family("repro_serve_dispatch_log_total", "counter",
                 "All-time dispatches recorded (log itself is bounded).")
        w.sample("repro_serve_dispatch_log_total",
                 sched.get("dispatch_log_total", 0))
        w.family("repro_serve_queued", "gauge",
                 "Jobs queued awaiting dispatch.")
        w.sample("repro_serve_queued", sched.get("queued", 0))
        w.family("repro_serve_active", "gauge", "Jobs currently running.")
        w.sample("repro_serve_active", sched.get("active", 0))
        w.family("repro_serve_tenant_queued", "gauge",
                 "Queued jobs per tenant.")
        for tenant, depth in sorted(
                (sched.get("queued_by_tenant") or {}).items()):
            w.sample("repro_serve_tenant_queued", depth,
                     {"tenant": tenant})
        w.family("repro_serve_tenant_active", "gauge",
                 "Running jobs per tenant.")
        for tenant, n in sorted(
                (sched.get("active_by_tenant") or {}).items()):
            w.sample("repro_serve_tenant_active", n, {"tenant": tenant})
        w.family("repro_serve_tenant_dispatched_total", "counter",
                 "All-time dispatches per tenant (fairness series).")
        for tenant, n in sorted(
                (sched.get("dispatched_by_tenant") or {}).items()):
            w.sample("repro_serve_tenant_dispatched_total", n,
                     {"tenant": tenant})

    pool = doc.get("pool")
    if pool:
        w.family("repro_serve_workers", "gauge",
                 "Configured pool worker slots.")
        w.sample("repro_serve_workers", pool.get("workers", 0))
        for gauge in ("idle", "busy", "alive"):
            name = f"repro_serve_workers_{gauge}"
            w.family(name, "gauge", f"Pool workers currently {gauge}.")
            w.sample(name, pool.get(gauge, 0))
        w.family("repro_serve_workers_spawned_total", "counter",
                 "Worker processes started over the daemon lifetime.")
        w.sample("repro_serve_workers_spawned_total",
                 pool.get("spawned", 0))
        w.family("repro_serve_workers_respawned_total", "counter",
                 "Workers restarted after crash, wedge, or broken pipe.")
        w.sample("repro_serve_workers_respawned_total",
                 pool.get("respawned", 0))
        w.family("repro_serve_jobs_total", "counter",
                 "Settled jobs by outcome.")
        for outcome in ("completed", "errors", "timeouts", "rejects"):
            if outcome in pool:
                w.sample("repro_serve_jobs_total", pool[outcome],
                         {"outcome": outcome})
        job_ms = pool.get("job_ms") or {}
        if job_ms.get("count"):
            w.family("repro_serve_job_wall_seconds", "summary",
                     "Wall time of settled jobs.")
            w.sample("repro_serve_job_wall_seconds",
                     job_ms.get("p50", 0) / 1000.0,
                     {"quantile": "0.5"})
            w.sample("repro_serve_job_wall_seconds",
                     job_ms.get("p99", 0) / 1000.0,
                     {"quantile": "0.99"})
            w.sample("repro_serve_job_wall_seconds",
                     job_ms.get("sum", 0) / 1000.0, suffix="_sum")
            w.sample("repro_serve_job_wall_seconds",
                     job_ms.get("count", 0), suffix="_count")
        warm = pool.get("warm_cache") or {}
        if warm:
            w.family("repro_serve_warm_cache_events_total", "counter",
                     "Warm target cache events summed across workers.")
            for key in ("hits", "misses", "parked", "dropped",
                        "ineligible"):
                if key in warm:
                    w.sample("repro_serve_warm_cache_events_total",
                             warm[key], {"event": key})
            w.family("repro_serve_warm_cache_size", "gauge",
                     "Parked systems across worker warm caches.")
            w.sample("repro_serve_warm_cache_size", warm.get("size", 0))
            hits, misses = warm.get("hits", 0), warm.get("misses", 0)
            if hits + misses:
                w.family("repro_serve_warm_cache_hit_ratio", "gauge",
                         "hits / (hits + misses) across workers.")
                w.sample("repro_serve_warm_cache_hit_ratio",
                         hits / (hits + misses))

    jobs = doc.get("jobs")
    if jobs is not None:
        w.family("repro_serve_jobs_in_flight", "gauge",
                 "Jobs accepted but not yet settled.")
        w.sample("repro_serve_jobs_in_flight", len(jobs))

    return w.text()


# -- validation ----------------------------------------------------------

def parse_exposition(text: str) -> Dict[str, float]:
    """Strictly parse Prometheus text exposition; raise on malformation.

    Enforces the invariants the tests and the CI serve-smoke gate rely
    on: legal metric/label names, ``# TYPE`` declared once per family
    and *before* its samples, known types, float-parseable values, and
    no duplicate sample (same name + label set).  Returns a flat map of
    ``name{labels}`` → value.

    Raises:
        ValueError: describing the first offending line.
    """
    samples: Dict[str, float] = {}
    types: Dict[str, str] = {}
    sample_re = re.compile(
        r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
        r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)\s*$")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment: "
                                 f"{line!r}")
            name = parts[2]
            if not _NAME_RE.match(name):
                raise ValueError(f"line {lineno}: illegal metric name "
                                 f"{name!r}")
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _TYPES:
                    raise ValueError(f"line {lineno}: bad TYPE: {line!r}")
                if name in types:
                    raise ValueError(f"line {lineno}: duplicate TYPE "
                                     f"for {name}")
                types[name] = parts[3]
            continue
        match = sample_re.match(line)
        if not match:
            raise ValueError(f"line {lineno}: unparseable sample: "
                             f"{line!r}")
        name = match.group("name")
        family = re.sub(r"_(?:sum|count|bucket)$", "", name)
        if name not in types and family not in types:
            raise ValueError(f"line {lineno}: sample {name!r} has no "
                             f"preceding TYPE declaration")
        labels = match.group("labels")
        if labels:
            for pair in _split_labels(labels, lineno):
                key, _ = pair
                if not _LABEL_RE.match(key):
                    raise ValueError(f"line {lineno}: illegal label "
                                     f"name {key!r}")
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric value in "
                             f"{line!r}") from None
        key = name + ("{" + labels + "}" if labels else "")
        if key in samples:
            raise ValueError(f"line {lineno}: duplicate sample {key!r}")
        samples[key] = value
    return samples


def _split_labels(labels: str,
                  lineno: int) -> List[Tuple[str, str]]:
    """Split a rendered label block into (name, value) pairs."""
    pairs: List[Tuple[str, str]] = []
    pattern = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)='
                         r'"((?:[^"\\]|\\.)*)"(?:,|$)')
    pos = 0
    while pos < len(labels):
        match = pattern.match(labels, pos)
        if not match:
            raise ValueError(
                f"line {lineno}: malformed labels {labels!r}")
        pairs.append((match.group(1), match.group(2)))
        pos = match.end()
    return pairs


# -- optional plain-HTTP /metrics listener --------------------------------

class MetricsHTTPServer:
    """Tiny threaded HTTP listener serving ``GET /metrics``.

    Exists so ordinary scrape-based monitoring (Prometheus, curl) can
    read the daemon without speaking the ``repro.serve/1`` protocol.
    Stdlib-only (:mod:`http.server`); anything but ``GET /metrics``
    gets a 404.
    """

    def __init__(self, render: Callable[[], str],
                 host: str = "127.0.0.1", port: int = 0) -> None:
        import http.server

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self) -> None:          # noqa: N802 (stdlib API)
                if self.path.rstrip("/") not in ("", "/metrics"):
                    self.send_error(404)
                    return
                try:
                    body = render().encode("utf-8")
                except Exception as exc:       # render must never 500 raw
                    self.send_error(500, str(exc))
                    return
                self.send_response(200)
                self.send_header(
                    "Content-Type",
                    "text/plain; version=0.0.4; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass                           # quiet; ServeLog covers it

        self._httpd = http.server.ThreadingHTTPServer(
            (host, port), Handler)
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-metrics-http", daemon=True)
        self._thread.start()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)
