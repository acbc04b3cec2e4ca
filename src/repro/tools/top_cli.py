"""``repro-top``: live terminal dashboard for a running serve daemon.

Polls the daemon's ``metrics`` verb (JSON form) on an interval and
redraws a compact, ``top``-style view — daemon header, worker table,
per-tenant fairness rows, the in-flight job table with live progress
(fed by the jobs' streaming frames), and a throughput sparkline built
from successive ``completed`` counter deltas.

Deliberately curses-free: the screen is repainted with ANSI
clear/home escapes when stdout is a TTY, and printed once per poll as
plain text otherwise — so ``repro-top --once`` doubles as a scriptable
snapshot (CI uploads one as a build artifact).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, List, Optional

#: eight-level bar glyphs for the throughput sparkline
SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: List[float], width: int = 24) -> str:
    """Render the most recent ``width`` values as a unicode sparkline."""
    tail = values[-width:]
    if not tail:
        return ""
    top = max(tail)
    if top <= 0:
        return SPARK[0] * len(tail)
    return "".join(
        SPARK[min(len(SPARK) - 1,
                  int(v / top * (len(SPARK) - 1) + 0.5))]
        for v in tail)


def _fmt_rate(value: float) -> str:
    return f"{value:6.1f}/s"


def render(doc: Dict[str, Any], history: List[float],
           interval_s: float) -> str:
    """One full dashboard frame from a ``metrics`` (JSON) document."""
    lines: List[str] = []
    counters = doc.get("counters", {})
    sched = doc.get("scheduler", {})
    pool = doc.get("pool", {})
    jobs = doc.get("jobs", {})

    uptime = doc.get("uptime_s", 0.0)
    lines.append(
        f"repro-top  up {uptime:7.1f}s  sessions {doc.get('sessions', 0)}"
        f"  conns {counters.get('connections_total', 0)}"
        f"  frames {counters.get('progress_frames_total', 0)}"
        f"  proto-errs {counters.get('protocol_errors_total', 0)}")

    completed = pool.get("completed", 0)
    rate = history[-1] if history else 0.0
    lines.append(
        f"jobs       done {completed}  err {pool.get('errors', 0)}"
        f"  timeout {pool.get('timeouts', 0)}"
        f"  queued {sched.get('queued', 0)}"
        f"  active {sched.get('active', 0)}"
        f"  {_fmt_rate(rate)}  {sparkline(history)}")

    warm = pool.get("warm_cache", {})
    hits, misses = warm.get("hits", 0), warm.get("misses", 0)
    ratio = f"{hits / (hits + misses):5.1%}" if hits + misses else "  n/a"
    job_ms = pool.get("job_ms", {}) or {}
    lines.append(
        f"cache      hit {ratio}  (h {hits} / m {misses}, "
        f"parked {warm.get('size', 0)})"
        f"   job p50 {job_ms.get('p50', 0):6.0f}ms"
        f"  p99 {job_ms.get('p99', 0):6.0f}ms")

    lines.append("")
    lines.append("WORKER  PID      STATE  JOBS")
    for w in pool.get("worker_states", []):
        state = ("busy" if w.get("busy")
                 else "idle" if w.get("alive") else "DEAD")
        lines.append(f"  w{w.get('index', '?'):<4} {w.get('pid', 0):<8} "
                     f"{state:<6} {w.get('jobs_done', 0)}")

    tenants = sorted(set(sched.get("dispatched_by_tenant", {}))
                     | set(sched.get("queued_by_tenant", {}))
                     | set(sched.get("active_by_tenant", {})))
    if tenants:
        lines.append("")
        lines.append("TENANT            QUEUED  ACTIVE  DISPATCHED")
        for tenant in tenants:
            lines.append(
                f"  {tenant:<16}"
                f" {sched.get('queued_by_tenant', {}).get(tenant, 0):>6}"
                f"  {sched.get('active_by_tenant', {}).get(tenant, 0):>6}"
                f"  {sched.get('dispatched_by_tenant', {}).get(tenant, 0):>10}")

    if jobs:
        lines.append("")
        lines.append("JOB      TENANT        KIND        WHAT            "
                     "PHASE           DONE      SIM(ns)")
        for job_id in sorted(jobs):
            info = jobs[job_id]
            lines.append(
                f"  {job_id:<7} {str(info.get('tenant', '')):<12} "
                f"{str(info.get('kind', '')):<11} "
                f"{str(info.get('what', '')):<15} "
                f"{str(info.get('phase') or '-'):<15} "
                f"{info.get('done_requests', 0):>8} "
                f"{info.get('sim_time_ns', 0):>12}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-top",
                                     description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7421)
    parser.add_argument("--interval", type=float, default=1.0,
                        metavar="S", help="poll interval (seconds)")
    parser.add_argument("--once", action="store_true",
                        help="print one snapshot and exit (scriptable)")
    args = parser.parse_args(argv)

    from repro.serve.client import ServeClient

    history: List[float] = []
    last_completed: Optional[int] = None
    tty = sys.stdout.isatty() and not args.once
    try:
        with ServeClient(args.host, args.port, tenant="repro-top") \
                as client:
            while True:
                doc = client.metrics()
                completed = doc.get("pool", {}).get("completed", 0)
                if last_completed is not None:
                    history.append(
                        max(0, completed - last_completed)
                        / max(args.interval, 1e-6))
                last_completed = completed
                frame = render(doc, history, args.interval)
                if tty:
                    # clear screen + home, then the frame
                    sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
                    sys.stdout.flush()
                else:
                    print(frame, flush=True)
                if args.once:
                    return 0
                time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    # Unreachable daemon is a usage-level condition, not a crash: one
    # line on stderr and exit 2.
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot reach daemon at {args.host}:{args.port} "
              f"({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
