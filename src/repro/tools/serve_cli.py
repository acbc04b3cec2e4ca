"""``repro-serve``: the simulation-as-a-service CLI.

Subcommands:

``daemon``
    Host the session daemon: ``repro-serve daemon --port 7421
    --workers 4``.  Prints the bound address (``--port 0`` picks a free
    port) and serves until interrupted.
``run``
    Client one-shot: open a session against a running daemon, run a
    named experiment, print its rendered tables (or ``--json``).
``stream``
    Client one-shot for a raw request stream against a registry target.
``smoke``
    Self-contained end-to-end check (used by CI): hosts a daemon
    in-process, runs ``fig1`` through a session twice — the second time
    on the same persistent worker — and asserts both are bit-identical
    to the batch runner's payload, exercises one quota rejection, and
    verifies the shutdown leaves no worker processes behind.

Exit codes follow the repo convention: 0 ok, 1 failure, 2 usage
(unknown experiment/target/override — with closest-match suggestions).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Any, Dict, List, Optional

from repro.common.errors import QuotaExceededError, ReproError

#: result_to_dict keys that may differ between served and batch runs by
#: construction (wall clock; serving identity; retry accounting)
NONPAYLOAD_KEYS = ("wall_s", "session", "attempts")


def payload_fingerprint(result_doc: Dict[str, Any]) -> Dict[str, Any]:
    """A served/batch-comparable view of one serialized result."""
    return {k: v for k, v in result_doc.items() if k not in NONPAYLOAD_KEYS}


def _cmd_daemon(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.log import ServeLog
    from repro.serve.server import ServeDaemon

    log = ServeLog(level=args.log_level, json_lines=args.log_json)
    daemon = ServeDaemon(host=args.host, port=args.port,
                         workers=args.workers,
                         max_active=args.max_active,
                         max_queued=args.max_queued,
                         job_timeout_s=args.job_timeout, seed=args.seed,
                         log=log, metrics_port=args.metrics_port)

    async def _serve() -> None:
        # SIGTERM takes the SIGINT path: cancel this task, so the pool
        # shutdown below still runs and no worker outlives the daemon.
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel)
        try:
            await daemon.start()
            print(f"repro-serve listening on {daemon.host}:{daemon.port} "
                  f"({args.workers} worker(s))", flush=True)
            if daemon._metrics_http is not None:
                print(f"repro-serve metrics on http://{daemon.host}:"
                      f"{daemon._metrics_http.port}/metrics", flush=True)
            await daemon.serve_forever()
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro-serve: interrupted; shutting down", file=sys.stderr)
    finally:
        daemon.pool.shutdown()
    return 0


def _live_status_printer():
    """A progress handler that keeps one status line current.

    Rewrites in place on a TTY; emits one line per frame otherwise so
    CI logs still show the stream.
    """
    end = "\r" if sys.stdout.isatty() else "\n"

    def on_progress(frame: Dict[str, Any]) -> None:
        print(f"[live] phase={frame.get('phase')} "
              f"done={frame.get('done_requests', 0)} "
              f"sim={frame.get('sim_time_ns', 0)}ns "
              f"frame={frame.get('frame', 0)}",
              end=end, flush=True)

    return on_progress


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient

    telemetry = ({"interval_ps": args.telemetry} if args.telemetry
                 else None)
    on_progress = _live_status_printer() if args.progress else None
    with ServeClient(args.host, args.port, tenant=args.tenant) as client:
        reply = client.run_experiment(args.experiment, scale=args.scale,
                                      seed=args.seed, telemetry=telemetry,
                                      on_progress=on_progress)
    if on_progress is not None:
        print(flush=True)             # end the live status line
    results = reply.get("results", [])
    if args.json:
        with open(args.json, "w", encoding="ascii") as fh:
            json.dump(reply, fh, indent=2, sort_keys=True)
        print(f"[saved result message to {args.json}]")
    for doc in results:
        print(f"== {doc['experiment']}: {doc['title']} ==")
        for key, value in doc.get("metrics", {}).items():
            print(f"{key}: {value}")
        print()
    session = reply.get("manifest", {}).get("session", {})
    print(f"[session {session.get('session')} tenant "
          f"{session.get('tenant')}; {len(results)} result(s)]")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient

    ops = [{"op": args.op, "addr": 0, "count": args.count,
            "stride": args.stride}]
    with ServeClient(args.host, args.port, tenant=args.tenant) as client:
        reply = client.run_stream(args.target, ops)
    stream = reply.get("stream", {})
    print(f"target {stream.get('target')}: {stream.get('ops')} op(s), "
          f"sim end {stream.get('sim_end_ps')} ps, "
          f"mean latency {stream.get('mean_latency_ps'):.0f} ps")
    if args.json:
        with open(args.json, "w", encoding="ascii") as fh:
            json.dump(reply, fh, indent=2, sort_keys=True)
        print(f"[saved result message to {args.json}]")
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    from repro.experiments.exec import run_experiment
    from repro.experiments.export import result_to_dict
    from repro.serve.client import ServeClient
    from repro.serve.server import running_daemon

    failures: List[str] = []
    telemetry = {"interval_ps": 200_000}
    flight = {"mode": "every", "every": 8}
    seed = args.seed

    def check(condition: bool, label: str) -> None:
        print(f"[{'ok' if condition else 'FAIL'}] {label}", flush=True)
        if not condition:
            failures.append(label)

    batch = [payload_fingerprint(result_to_dict(r))
             for r in run_experiment(args.experiment, seed=seed,
                                     telemetry=telemetry)]
    print(f"[batch {args.experiment}: {len(batch)} result(s)]", flush=True)
    from repro.experiments.exec import make_flight_recorder
    batch_flight = [payload_fingerprint(result_to_dict(r))
                    for r in run_experiment(
                        args.experiment, seed=seed,
                        flight=make_flight_recorder(flight))]
    print(f"[batch {args.experiment} + flight recorder]", flush=True)

    with running_daemon(workers=2, max_active=1,
                        max_queued=1, seed=seed) as daemon:
        with ServeClient("127.0.0.1", daemon.port,
                         tenant="smoke") as client:
            frames: List[Dict[str, Any]] = []
            live = _live_status_printer()

            def on_progress(frame: Dict[str, Any]) -> None:
                frames.append(frame)
                live(frame)

            streamed = client.run_experiment(
                args.experiment, seed=seed, telemetry=telemetry,
                progress=True, on_progress=on_progress)
            if sys.stdout.isatty():
                print(flush=True)     # end the live status line
            again = client.run_experiment(args.experiment, seed=seed,
                                          telemetry=telemetry)
            served_first = [payload_fingerprint(d)
                            for d in streamed["results"]]
            served_again = [payload_fingerprint(d)
                            for d in again["results"]]
            check(served_first == batch,
                  "served (progress streaming) == batch runner, "
                  "bit-identical")
            check(served_again == batch
                  and again["worker_pid"] == streamed["worker_pid"],
                  "served again on the same persistent worker == batch "
                  "runner, bit-identical")
            check(len(frames) >= 2,
                  f"progress streamed >=2 frames before the terminal "
                  f"reply ({len(frames)} frame(s))")
            sims = [f.get("sim_time_ns", 0) for f in frames]
            check(sims == sorted(sims),
                  "progress sim_time_ns is monotone non-decreasing")
            check(all(d["session"] == {"session": client.session,
                                       "tenant": "smoke"}
                      for d in streamed["results"]),
                  "results carry the session identity")
            check(streamed["manifest"]["session"]["session"]
                  == client.session,
                  "manifest carries the session identity")

            flighted = client.run_experiment(args.experiment, seed=seed,
                                             flight=flight)
            served_flight = [payload_fingerprint(d)
                             for d in flighted["results"]]
            check(served_flight == batch_flight,
                  "served flight breakdowns == batch runner, "
                  "bit-identical")

            # backpressure: 1 active + 1 queued, third submit must be
            # rejected with a 429 while the first two are still busy
            busy_ops = [{"op": "read", "count": 30_000, "stride": 64}]
            first = client.submit_stream("vans", busy_ops)
            second = client.submit_stream("vans", busy_ops)
            third = client.submit_stream("vans", busy_ops)

            # mid-run metrics scrape: jobs are still active/queued, so
            # the exposition must already carry scheduler and pool
            # series and parse strictly
            from repro.serve.metrics import parse_exposition
            exposition = client.metrics(format="prometheus")
            try:
                samples = parse_exposition(exposition)
            except ValueError as exc:
                samples = {}
                print(f"[exposition error] {exc}", file=sys.stderr)
            check(len(samples) > 0,
                  f"mid-run Prometheus exposition parses "
                  f"({len(samples)} sample(s))")
            check(any(k.startswith("repro_serve_scheduler_jobs_total")
                      for k in samples)
                  and "repro_serve_workers" in samples,
                  "exposition covers scheduler and pool")
            check(samples.get("repro_serve_jobs_in_flight", 0) >= 1,
                  "mid-run scrape sees in-flight jobs")
            metrics_doc = client.metrics()
            check(metrics_doc["counters"]["progress_frames_total"]
                  >= len(frames),
                  "daemon counted the relayed progress frames")

            rejection = client.wait(third, raise_on_error=False)
            check(rejection.get("type") == "rejected"
                  and rejection.get("code") == 429,
                  "quota overflow rejected with code 429")
            ok_first = client.wait(first)
            ok_second = client.wait(second)
            check(ok_first["stream"]["ops"] == 30_000
                  and ok_second["stream"]["sim_end_ps"]
                  == ok_first["stream"]["sim_end_ps"],
                  "queued stream jobs completed deterministically")
        pool = daemon.pool
    check(pool.processes_alive() == 0,
          "shutdown left no orphaned worker processes")
    if failures:
        print(f"[smoke FAILED: {len(failures)} check(s)]", file=sys.stderr)
        return 1
    print("[smoke ok]")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-serve",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    daemon_p = sub.add_parser("daemon", help="host the session daemon")
    daemon_p.add_argument("--host", default="127.0.0.1")
    daemon_p.add_argument("--port", type=int, default=7421,
                          help="TCP port (0 picks a free one)")
    daemon_p.add_argument("--workers", type=int, default=2,
                          help="persistent worker processes")
    daemon_p.add_argument("--max-active", type=int, default=2,
                          help="per-tenant concurrently running jobs")
    daemon_p.add_argument("--max-queued", type=int, default=8,
                          help="per-tenant queued jobs before 429")
    daemon_p.add_argument("--job-timeout", type=float, default=None,
                          metavar="S", help="watchdog per job (seconds)")
    daemon_p.add_argument("--seed", type=int, default=42)
    daemon_p.add_argument("--log-level", default="info",
                          choices=["debug", "info", "warning", "error",
                                   "off"],
                          help="structured log verbosity (stderr)")
    daemon_p.add_argument("--log-json", action="store_true",
                          help="emit logs as JSON lines instead of text")
    daemon_p.add_argument("--metrics-port", type=int, default=None,
                          metavar="PORT",
                          help="also serve Prometheus text on plain "
                               "HTTP GET /metrics (0 picks a free port)")
    daemon_p.set_defaults(func=_cmd_daemon)

    run_p = sub.add_parser("run", help="run one experiment via a session")
    run_p.add_argument("experiment")
    run_p.add_argument("--host", default="127.0.0.1")
    run_p.add_argument("--port", type=int, default=7421)
    run_p.add_argument("--tenant", default="cli")
    run_p.add_argument("--scale", default="smoke",
                       choices=["smoke", "paper"])
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--telemetry", type=int, default=0, metavar="PS",
                       help="sample sim-time telemetry every PS ps")
    run_p.add_argument("--json", metavar="PATH",
                       help="save the full result message as JSON")
    run_p.add_argument("--progress", action="store_true",
                       help="stream live progress frames while waiting")
    run_p.set_defaults(func=_cmd_run)

    stream_p = sub.add_parser("stream",
                              help="drive a target with a request stream")
    stream_p.add_argument("target")
    stream_p.add_argument("--host", default="127.0.0.1")
    stream_p.add_argument("--port", type=int, default=7421)
    stream_p.add_argument("--tenant", default="cli")
    stream_p.add_argument("--op", default="read",
                          choices=["read", "write", "fence"])
    stream_p.add_argument("--count", type=int, default=1024)
    stream_p.add_argument("--stride", type=int, default=64)
    stream_p.add_argument("--json", metavar="PATH")
    stream_p.set_defaults(func=_cmd_stream)

    smoke_p = sub.add_parser("smoke",
                             help="end-to-end serve check (CI)")
    smoke_p.add_argument("--experiment", default="fig1")
    smoke_p.add_argument("--seed", type=int, default=42)
    smoke_p.set_defaults(func=_cmd_smoke)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QuotaExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        # unknown experiment/target/override: the message carries the
        # closest-match suggestion and the valid-name list.  Usage-level
        # server replies (code 2) exit 2 like every repro CLI; internal
        # server failures exit 1.
        print(f"error: {exc}", file=sys.stderr)
        return 1 if getattr(exc, "code", 2) == 1 else 2
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
