"""Serve observability: the metrics registry, Prometheus exposition
(render + strict parse), the HTTP listener, structured logs, and the
end-to-end progress/metrics path through a live daemon.
"""

from __future__ import annotations

import io
import json
import urllib.request

import pytest

from repro.serve.log import ServeLog
from repro.serve.metrics import (MetricsHTTPServer, ServeMetrics,
                                 parse_exposition, render_prometheus)

SAMPLE_DOC = {
    "uptime_s": 12.5,
    "sessions": 2,
    "counters": {"connections_total": 3, "protocol_errors_total": 1,
                 "progress_frames_total": 40, "metrics_scrapes_total": 5},
    "scheduler": {"submitted": 9, "dispatched": 8, "completed": 7,
                  "rejected": 1, "dispatch_log_total": 8, "queued": 1,
                  "active": 1, "queued_by_tenant": {"a": 1},
                  "active_by_tenant": {"b": 1},
                  "dispatched_by_tenant": {"a": 3, "b": 5}},
    "pool": {"workers": 2, "idle": 1, "busy": 1, "alive": 2,
             "spawned": 2, "respawned": 0, "completed": 7, "errors": 0,
             "timeouts": 0, "rejects": 1,
             "job_ms": {"count": 7, "sum": 2100, "p50": 300, "p99": 400}},
    "jobs": {"j-1": {"tenant": "a"}, "j-2": {"tenant": "b"}},
}


class TestExposition:
    def test_render_parse_round_trip(self):
        samples = parse_exposition(render_prometheus(SAMPLE_DOC))
        assert samples["repro_serve_uptime_seconds"] == 12.5
        assert samples["repro_serve_sessions"] == 2
        assert samples['repro_serve_jobs_total{outcome="completed"}'] == 7
        assert samples[
            'repro_serve_scheduler_jobs_total{event="rejected"}'] == 1
        assert samples[
            'repro_serve_tenant_dispatched_total{tenant="b"}'] == 5
        assert samples["repro_serve_jobs_in_flight"] == 2
        # summary: quantiles in seconds, count preserved
        assert samples[
            'repro_serve_job_wall_seconds{quantile="0.5"}'] == \
            pytest.approx(0.3)
        assert samples["repro_serve_job_wall_seconds_count"] == 7

    def test_exposition_declares_types_before_samples(self):
        text = render_prometheus(SAMPLE_DOC)
        seen_types = set()
        for line in text.splitlines():
            if line.startswith("# TYPE"):
                seen_types.add(line.split()[2])
            elif line and not line.startswith("#"):
                name = line.split("{")[0].split()[0]
                family = name
                for suffix in ("_sum", "_count", "_bucket"):
                    if name.endswith(suffix):
                        family = name[: -len(suffix)]
                assert name in seen_types or family in seen_types

    def test_label_values_are_escaped(self):
        doc = {"uptime_s": 1, "counters": {},
               "scheduler": {"submitted": 0, "dispatched": 0,
                             "completed": 0, "rejected": 0,
                             "dispatch_log_total": 0, "queued": 0,
                             "active": 0,
                             "dispatched_by_tenant": {'we"ird\\t': 4}}}
        samples = parse_exposition(render_prometheus(doc))
        assert any(value == 4 for key, value in samples.items()
                   if key.startswith("repro_serve_tenant_dispatched"))

    @pytest.mark.parametrize("bad,reason", [
        ("orphan_metric 1\n", "no preceding TYPE"),
        ("# TYPE m gauge\nm 1\nm 1\n", "duplicate sample"),
        ("# TYPE m gauge\n# TYPE m gauge\nm 1\n", "duplicate TYPE"),
        ("# TYPE m wibble\n", "bad TYPE"),
        ("# TYPE m gauge\nm not-a-number\n", "non-numeric"),
        ("# TYPE 0bad gauge\n", "illegal metric name"),
    ])
    def test_parse_rejects_malformed(self, bad, reason):
        with pytest.raises(ValueError):
            parse_exposition(bad)

    def test_parse_accepts_empty_and_blank_lines(self):
        assert parse_exposition("") == {}
        assert parse_exposition("\n\n# HELP x y\n") == {}


class TestServeMetrics:
    def test_counters_and_collect(self):
        class FakeSched:
            def snapshot(self):
                return {"submitted": 1}

        class FakePool:
            def snapshot(self):
                return {"workers": 1}

        metrics = ServeMetrics(scheduler=FakeSched(), pool=FakePool(),
                               sessions=[1, 2])
        metrics.inc("connections_total")
        metrics.inc("connections_total", by=2)
        doc = metrics.collect()
        assert doc["counters"]["connections_total"] == 3
        assert doc["sessions"] == 2
        assert doc["scheduler"] == {"submitted": 1}
        assert doc["pool"] == {"workers": 1}
        assert doc["uptime_s"] >= 0
        # renders and parses even with minimal subsystem snapshots
        assert parse_exposition(metrics.prometheus())

    def test_http_listener(self):
        server = MetricsHTTPServer(
            lambda: render_prometheus(SAMPLE_DOC), port=0)
        try:
            url = f"http://127.0.0.1:{server.port}/metrics"
            with urllib.request.urlopen(url, timeout=10) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith(
                    "text/plain")
                body = response.read().decode("utf-8")
            assert parse_exposition(body)["repro_serve_sessions"] == 2
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/nope", timeout=10)
        finally:
            server.close()


class TestServeLog:
    def test_json_lines_carry_correlation_fields(self):
        buffer = io.StringIO()
        log = ServeLog(level="debug", json_lines=True, stream=buffer)
        log.info("job.accepted", session="s-1", tenant="a", job="j-9",
                 request_id=4, none_dropped=None)
        doc = json.loads(buffer.getvalue())
        assert doc["event"] == "job.accepted"
        assert doc["job"] == "j-9" and doc["tenant"] == "a"
        assert "none_dropped" not in doc

    def test_level_filtering(self):
        buffer = io.StringIO()
        log = ServeLog(level="warning", stream=buffer)
        log.debug("quiet")
        log.info("quiet")
        log.warning("loud", job="j-1")
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert "loud" in lines[0] and "job=j-1" in lines[0]

    def test_off_is_silent_and_never_raises(self):
        class Closed:
            def write(self, text):
                raise ValueError("closed")

            def flush(self):
                raise ValueError("closed")

        log = ServeLog(level="info", stream=Closed())
        log.error("still fine")       # swallowed
        silent = ServeLog(level="off", stream=Closed())
        silent.error("dropped before the stream is touched")


class TestDaemonEndToEnd:
    OPS = [{"op": "read", "addr": 0, "count": 2000, "stride": 64}]

    def test_progress_metrics_and_logs_through_live_daemon(self):
        from repro.experiments.exec import run_stream
        from repro.serve.client import ServeClient
        from repro.serve.server import running_daemon

        log_buffer = io.StringIO()
        log = ServeLog(level="debug", json_lines=True, stream=log_buffer)
        frames = []
        with running_daemon(workers=1, log=log) as daemon:
            with ServeClient("127.0.0.1", daemon.port,
                             tenant="obs") as client:
                reply = client.run_stream(
                    "vans", self.OPS,
                    progress={"interval_ps": 5_000_000,
                              "min_wall_s": 0.0},
                    on_progress=frames.append)
                metrics_doc = client.metrics()
                exposition = client.metrics(format="prometheus")

        # ≥2 frames (phase + terminal), monotone, carrying identity
        assert len(frames) >= 2
        sims = [f["sim_time_ns"] for f in frames]
        assert sims == sorted(sims)
        assert all(f["type"] == "progress" and f["job"] == reply["job"]
                   for f in frames)
        assert frames[-1]["worker_pid"] == reply["worker_pid"]

        # terminal payload byte-identical to the in-process runner
        # (session identity is served-only by design, like wall_s)
        served = {k: v for k, v in reply["stream"].items()
                  if k != "session"}
        batch = {k: v for k, v in run_stream("vans", self.OPS).items()
                 if k != "session"}
        assert served == batch

        # metrics saw the frames and the settled job
        counters = metrics_doc["counters"]
        assert counters["progress_frames_total"] >= len(frames)
        assert counters["connections_total"] >= 1
        assert metrics_doc["pool"]["completed"] >= 1
        samples = parse_exposition(exposition)
        assert samples["repro_serve_progress_frames_total"] >= \
            len(frames)
        assert samples['repro_serve_jobs_total{outcome="completed"}'] \
            >= 1

        # structured log reconstructs the job's life by correlation id
        events = [json.loads(line) for line
                  in log_buffer.getvalue().splitlines()]
        job_events = [e for e in events
                      if e.get("job") == reply["job"]]
        kinds = [e["event"] for e in job_events]
        assert "job.accepted" in kinds
        assert "job.settled" in kinds
        assert any(k == "job.progress" for k in kinds)
        assert all(e["tenant"] == "obs" for e in job_events)

    def test_watch_broadcasts_progress_to_observers(self):
        from repro.serve.client import ServeClient
        from repro.serve.server import running_daemon

        with running_daemon(workers=1) as daemon:
            with ServeClient("127.0.0.1", daemon.port,
                             tenant="watcher") as observer, \
                    ServeClient("127.0.0.1", daemon.port,
                                tenant="runner") as runner:
                request_id = next(observer._ids)
                observer._send({"type": "watch", "id": request_id})
                ack = observer._wait_for(request_id)
                assert ack["type"] == "watching"

                runner.run_stream(
                    "vans", self.OPS,
                    progress={"interval_ps": 5_000_000,
                              "min_wall_s": 0.0},
                    on_progress=lambda f: None)

                # broadcast frames carry the runner's identity and no
                # request id (they are not addressed to the observer)
                seen = observer._read_message()
                assert seen["type"] == "progress"
                assert "id" not in seen
                assert seen["tenant"] == "runner"

    def test_unknown_verb_counts_protocol_error(self):
        from repro.serve.client import ServeClient
        from repro.serve.server import running_daemon

        with running_daemon(workers=1) as daemon:
            with ServeClient("127.0.0.1", daemon.port) as client:
                request_id = next(client._ids)
                client._send({"type": "frobnicate", "id": request_id})
                reply = client._wait_for(request_id,
                                         raise_on_error=False)
                assert reply["type"] == "error"
                doc = client.metrics()
        assert doc["counters"]["protocol_errors_total"] >= 1
