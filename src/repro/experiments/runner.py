"""Run every reproduced table/figure and render the results.

``python -m repro.experiments.runner [--paper] [--workers N] [ids...]``

The execution core — the experiment registry, per-experiment seeding,
instrumentation/telemetry/fault session plumbing, the worker job —
lives in :mod:`repro.experiments.exec` so the ``repro-serve`` session
daemon can drive the same code without pulling in this CLI; worker
processes come from :mod:`repro.common.supervise`.
This module keeps the *campaign* concerns:

* **scheduling** — serial or ``--workers N`` process fan-out,
  longest-first packing, bit-identical to serial either way;
* **crash tolerance** — with ``--timeout``/``--retries`` each experiment
  runs in a watchdogged worker process: a hang is stopped and
  recorded as ``status="timeout"``, a crash captures the remote
  traceback onto a ``status="failed"`` placeholder, bounded retries
  re-execute with the identical seed (exponential backoff), and specs
  that keep failing are ``status="quarantined"``.  A campaign always
  completes with one result per experiment; the exit code distinguishes
  all-ok (0), partial (4), and total (1) failure;
* **rendering/export** — aligned-text tables, ASCII plots, flight
  breakdowns, telemetry reports, JSON export.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from dataclasses import replace as dc_replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.common.errors import UnknownExperimentError
# Re-exported execution core: tests and tools import these names from
# here, and some monkeypatch this module's attributes (REGISTRY is
# mutated in place, so it must stay the *same* dict object as exec's).
from repro.experiments.exec import (  # noqa: F401
    DEFAULT_SEED,
    EXIT_ALL_FAILED,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    REGISTRY,
    ExperimentSpec,
    _failure_result,
    _Job,
    _spec,
    _worker,
    campaign_exit_code,
    filter_ids,
    make_flight_recorder,
    run_experiment,
    validate_ids,
)
from repro.experiments.common import ExperimentResult, Scale
from repro.flight import FlightRecord, breakdowns, save_chrome_trace


def run_all(scale: Scale = Scale.SMOKE, ids: Optional[List[str]] = None,
            seed: int = DEFAULT_SEED, workers: int = 1,
            telemetry: Optional[Dict[str, object]] = None,
            faults: Optional[Mapping[str, object]] = None,
            timeout_s: Optional[float] = None, retries: int = 0
            ) -> List[ExperimentResult]:
    """Run experiments (all by default), serial or fan-out.

    Results come back in registry order either way; with ``workers > 1``
    each experiment runs in its own process but is bit-identical to the
    serial run because all experiment randomness is seeded per id and
    telemetry/fault sessions are built per experiment from the same
    specs.  With ``timeout_s`` or ``retries`` set, experiments run under
    the crash-tolerant process scheduler even at ``workers=1`` (a
    watchdog needs process isolation); a plain serial run still degrades
    gracefully — an experiment that raises becomes a ``status="failed"``
    placeholder instead of aborting the campaign.
    """
    ids = validate_ids(ids) if ids else list(REGISTRY)
    if workers <= 1 and timeout_s is None and not retries:
        results: List[ExperimentResult] = []
        for exp_id in ids:
            try:
                results.extend(run_experiment(exp_id, scale, seed,
                                              telemetry=telemetry,
                                              faults=faults))
            except Exception:
                results.append(_failure_result(
                    exp_id, "failed", traceback.format_exc(), attempts=1))
        return results
    by_id = _run_parallel(ids, scale, seed, workers,
                          telemetry_spec=telemetry, faults_spec=faults,
                          timeout_s=timeout_s, retries=retries)
    return [r for exp_id in ids for r in by_id[exp_id][0]]


def _run_parallel(ids: List[str], scale: Scale, seed: int, workers: int,
                  flight_spec: Optional[Dict[str, object]] = None,
                  heartbeat: bool = False,
                  telemetry_spec: Optional[Dict[str, object]] = None,
                  faults_spec: Optional[Mapping[str, object]] = None,
                  timeout_s: Optional[float] = None,
                  retries: int = 0,
                  backoff_s: Optional[float] = None,
                  ) -> Dict[str, Tuple[List[ExperimentResult], float,
                                       List[FlightRecord]]]:
    """Crash-tolerant process fan-out; longest-first for packing.

    Each experiment runs in its own watchdogged process
    (:func:`repro.common.supervise.run_jobs`):

    * ``timeout_s`` — a worker past its deadline is stopped and the
      attempt recorded as a timeout;
    * ``retries`` — failed/timed-out attempts are re-executed with the
      identical job tuple (seed preserved) after exponential backoff
      (``backoff_s * 2**(attempt-1)``, ``backoff_s`` defaulting to
      :data:`~repro.common.supervise.BACKOFF_S`), up to ``retries``
      extra times;
    * quarantine — an experiment that exhausts its retries is recorded
      as ``status="quarantined"`` (``"failed"``/``"timeout"`` when no
      retries were requested) with the last remote traceback attached,
      and the campaign continues: every id always gets an entry.

    With ``heartbeat`` the parent prints a ``[done k/n]`` stderr line as
    each experiment settles — with wall-clock elapsed and an ETA
    weighted by the remaining experiments' ``est_cost`` — so long
    parallel runs stay observable (worker processes can't share the
    parent's progress stream).

    The supervisor (and with it :mod:`multiprocessing`) is imported
    here, on the only path that forks, so a serial run never loads it.
    """
    from repro.common.supervise import BACKOFF_S, run_jobs
    if backoff_s is None:
        backoff_s = BACKOFF_S
    order = sorted(ids, key=lambda i: -REGISTRY[i].est_cost)
    total_cost = sum(REGISTRY[i].est_cost for i in order) or 1.0
    by_id: Dict[str, Tuple[List[ExperimentResult], float,
                           List[FlightRecord]]] = {}
    wall_start = time.time()
    done_cost = 0.0
    jobs: List[_Job] = [(exp_id, scale.value, seed, flight_spec,
                         telemetry_spec, faults_spec) for exp_id in order]
    for outcome in run_jobs(_worker, jobs, workers, timeout_s, retries,
                            backoff_s):
        exp_id = order[outcome.index]
        if outcome.retry_in_s is not None:
            if heartbeat:
                print(f"[retry {exp_id}: attempt {outcome.attempt} "
                      f"{outcome.status}; backing off "
                      f"{outcome.retry_in_s:.1f}s]", file=sys.stderr,
                      flush=True)
            continue
        status = outcome.status
        if status == "ok":
            _, results, elapsed, records = outcome.value
            for result in results:
                result.attempts = outcome.attempt
        else:
            error = outcome.error
            if status == "timeout":
                error = (f"experiment exceeded --timeout {timeout_s}s "
                         f"(attempt {outcome.attempt}); worker terminated")
            status = "quarantined" if retries > 0 else status
            results = [_failure_result(exp_id, status, error,
                                       outcome.attempt)]
            elapsed, records = outcome.elapsed_s, []
        by_id[exp_id] = (results, elapsed, records)
        done_cost += REGISTRY[exp_id].est_cost
        if heartbeat:
            wall = time.time() - wall_start
            if 0 < done_cost < total_cost:
                eta_note = (f" eta ~"
                            f"{wall * (total_cost - done_cost) / done_cost:.0f}s")
            else:
                eta_note = ""
            note = "" if status == "ok" else f" [{status.upper()}]"
            print(f"[done {len(by_id)}/{len(order)}] {exp_id}{note} "
                  f"({elapsed:.1f}s) elapsed {wall:.1f}s{eta_note}",
                  file=sys.stderr, flush=True)
    return by_id


def _print_listing() -> None:
    width = max(len(i) for i in REGISTRY)
    print(f"{'id'.ljust(width)}  sect    ~cost  targets / description")
    for spec in REGISTRY.values():
        print(f"{spec.id.ljust(width)}  {spec.section:6s} "
              f"{spec.est_cost:5.0f}s  {', '.join(spec.targets)}")
        print(f"{''.ljust(width)}                 {spec.description}")


def _print_result(result: ExperimentResult, plot: bool) -> None:
    print(result.render())
    if plot and result.series:
        from repro.experiments.plotting import line_plot
        chart = line_plot(result.series)
        if chart:
            print()
            print(chart)
    print()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("ids", nargs="*", metavar="id",
                        help="experiment ids (default: all; see --list)")
    parser.add_argument("--list", action="store_true", dest="list_ids",
                        help="list known experiments and exit")
    parser.add_argument("--filter", metavar="PATTERN",
                        help="run ids whose id/section/description "
                             "contains PATTERN")
    parser.add_argument("--paper", action="store_true",
                        help="full paper-scale sweeps (slow)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="run experiments in N parallel processes "
                             "(bit-identical to serial)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="base seed for per-experiment RNG")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="watchdog: terminate any experiment running "
                             "longer than S seconds (status=timeout)")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="re-execute failed/timed-out experiments up "
                             "to N times (same seed, exponential backoff); "
                             "still-failing specs are quarantined")
    parser.add_argument("--faults", metavar="PATH",
                        help="run the campaign under a fault plan "
                             "(repro.faultplan/1 JSON; see repro-faults)")
    parser.add_argument("--fault-seed", type=int, default=None, metavar="N",
                        help="with --faults, override the plan seed; "
                             "alone, run under a randomized plan "
                             "generated from seed N")
    parser.add_argument("--plot", action="store_true",
                        help="draw ASCII charts of each result's series")
    parser.add_argument("--json", metavar="PATH",
                        help="also export all results (including "
                             "instrumentation snapshots) as JSON")
    parser.add_argument("--flight", action="store_true",
                        help="record per-request flight spans and print "
                             "per-op latency breakdowns")
    parser.add_argument("--flight-sample", type=int, default=0, metavar="N",
                        help="sample 1 in N requests (implies --flight)")
    parser.add_argument("--flight-out", metavar="PATH",
                        help="export sampled records as a Chrome/Perfetto "
                             "trace.json (implies --flight)")
    from repro.tools.telemetry_opts import (add_telemetry_args,
                                            telemetry_spec_from_args)
    add_telemetry_args(parser)
    args = parser.parse_args(argv)

    if args.list_ids:
        _print_listing()
        return 0

    try:
        ids = validate_ids(args.ids) if args.ids else list(REGISTRY)
    except UnknownExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.filter:
        matched = [i for i in filter_ids(args.filter) if i in ids]
        if not matched:
            print(f"error: --filter {args.filter!r} matches no experiment",
                  file=sys.stderr)
            return 2
        ids = matched

    scale = Scale.PAPER if args.paper else Scale.SMOKE
    flight_spec: Optional[Dict[str, object]] = None
    if args.flight or args.flight_sample or args.flight_out:
        if args.flight_sample > 1:
            flight_spec = {"mode": "every", "every": args.flight_sample}
        else:
            flight_spec = {"mode": "all"}
    telemetry_spec = telemetry_spec_from_args(args)

    faults_spec: Optional[Dict[str, object]] = None
    if args.faults or args.fault_seed is not None:
        from repro.common.errors import FaultPlanError
        from repro.faults.plan import load_plan, random_plan
        try:
            if args.faults:
                plan = load_plan(args.faults)
                if args.fault_seed is not None:
                    plan = dc_replace(plan, seed=args.fault_seed)
            else:
                plan = random_plan(args.fault_seed)
        except FaultPlanError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        faults_spec = plan.to_dict()

    collected: List[ExperimentResult] = []
    all_records: List[FlightRecord] = []
    crash_tolerant = (args.workers > 1 or args.timeout is not None
                      or args.retries > 0)
    if crash_tolerant:
        by_id = _run_parallel(ids, scale, args.seed, args.workers,
                              flight_spec=flight_spec, heartbeat=True,
                              telemetry_spec=telemetry_spec,
                              faults_spec=faults_spec,
                              timeout_s=args.timeout, retries=args.retries)
        for exp_id in ids:
            results, elapsed, records = by_id[exp_id]
            all_records.extend(records)
            for result in results:
                collected.append(result)
                _print_result(result, args.plot)
            print(f"[{exp_id} done in {elapsed:.1f}s]\n")
    else:
        for exp_id in ids:
            start = time.time()
            recorder = make_flight_recorder(flight_spec)
            try:
                results = run_experiment(exp_id, scale, args.seed,
                                         flight=recorder,
                                         telemetry=telemetry_spec,
                                         faults=faults_spec)
            except Exception:
                results = [_failure_result(exp_id, "failed",
                                           traceback.format_exc(),
                                           attempts=1)]
            for result in results:
                collected.append(result)
                _print_result(result, args.plot)
            if recorder is not None:
                all_records.extend(recorder.records)
            print(f"[{exp_id} done in {time.time() - start:.1f}s]\n")

    if telemetry_spec is not None:
        from repro.tools.telemetry_opts import report_telemetry
        report_telemetry(collected, args)
    if flight_spec is not None:
        for op, breakdown in breakdowns(all_records).items():
            print(breakdown.render())
            print()
    if args.flight_out:
        events = save_chrome_trace(all_records, args.flight_out)
        print(f"[exported {events} trace events to {args.flight_out}]")
    if args.json:
        from repro.experiments.export import save_json
        count = save_json(collected, args.json)
        print(f"[exported {count} results to {args.json}]")
    failed = [r for r in collected if r.status != "ok"]
    if failed:
        print(f"[{len(failed)}/{len(collected)} result(s) not ok: "
              + ", ".join(f"{r.experiment}={r.status}" for r in failed)
              + "]", file=sys.stderr)
    return campaign_exit_code(collected)


if __name__ == "__main__":
    sys.exit(main())
