"""Experiment execution core, decoupled from any front end.

This module owns *how one experiment (or raw request stream) runs*:
the id -> :class:`ExperimentSpec` registry, per-experiment seeding,
instrumentation collection, flight/telemetry/fault session plumbing,
and :func:`_worker`, the job the runner's crash-tolerant scheduler
runs in supervised child processes (:mod:`repro.common.supervise`).

The registry names each experiment's module
(``repro.experiments.<module>``) and imports it on the first run of
that id, so a process imports only the experiments it runs: ``--list``,
``--filter``, id validation and longest-first scheduling read only the
spec metadata.

Two front ends drive it:

* :mod:`repro.experiments.runner` — the batch CLI (campaign fan-out,
  rendering, JSON export);
* :mod:`repro.serve` — the long-lived session daemon, whose worker
  pool calls :func:`run_experiment`/:func:`run_stream` directly.

Both produce bit-identical :class:`ExperimentResult` payloads for the
same ``(experiment, scale, seed)``; serving identity travels in the
separate ``result.session`` field so the simulation payload never
depends on who asked for it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from importlib import import_module
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro import registry
from repro.common.errors import UnknownExperimentError, _suggest
from repro.experiments.common import ExperimentResult, Scale
from repro.faults.injector import NULL_FAULTS, FaultInjector
from repro.faults.injector import session as faults_session
from repro.faults.persistence import PersistenceChecker
from repro.faults.plan import FaultPlan
from repro.faults.report import fault_report
from repro.flight import FlightRecord, FlightRecorder, breakdowns
from repro.flight import session as flight_session
from repro.instrument import Collection
from repro.progress import NULL_PROGRESS, ProgressReporter  # noqa: F401  (re-export)
from repro.progress import session as progress_session
from repro.prof.profiler import Profiler
from repro.prof.profiler import session as prof_session
from repro.telemetry import TelemetrySampler
from repro.telemetry import session as telemetry_session

DEFAULT_SEED = 42

#: exit codes CLIs return for campaign outcomes
EXIT_OK = 0
EXIT_ALL_FAILED = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 4


@dataclass(frozen=True)
class ExperimentSpec:
    """Metadata for one runnable experiment id."""

    id: str
    run: Callable[[Scale], object]
    section: str
    description: str
    #: rough smoke-scale runtime in seconds (for --list and for
    #: longest-first scheduling under --workers)
    est_cost: float
    #: registry target names the experiment builds
    targets: Tuple[str, ...]


@dataclass(frozen=True)
class _Entry:
    """``run`` of ``repro.experiments.<module>``, imported on first call."""

    module: str

    def __call__(self, scale: Scale) -> object:
        return import_module(f"repro.experiments.{self.module}").run(scale)


def _spec(id, run, section, description, est_cost, targets):
    return ExperimentSpec(id, run, section, description, est_cost,
                          tuple(targets))


#: experiment id -> spec (insertion order is the canonical run order)
REGISTRY: Dict[str, ExperimentSpec] = {s.id: s for s in [
    _spec("fig1", _Entry("fig01"), "II",
          "pointer-chase latency tiers vs. prior simulators", 1.5,
          ["vans", "pmep", "optane-ref"]),
    _spec("fig3", _Entry("fig03"), "III",
          "existing emulators/simulators miss the buffer tiers", 2.0,
          ["vans", "optane-ref", "dramsim2-ddr3", "ramulator-ddr4",
           "ramulator-pcm"]),
    _spec("fig5", _Entry("fig05"), "IV-B",
          "LENS buffer prober: read/write capacity inflections", 2.0,
          ["vans"]),
    _spec("fig6", _Entry("fig06"), "IV-B",
          "LENS entry-size and flush-granularity probes", 2.0,
          ["vans"]),
    _spec("fig7", _Entry("fig07"), "IV-C",
          "LENS policy prober: overwrite tails, wear leveling", 5.0,
          ["vans", "vans-6dimm"]),
    _spec("fig8", _Entry("characterize"), "IV",
          "full LENS characterization of the simulated DIMM", 14.0,
          ["vans", "vans-6dimm"]),
    _spec("fig9", _Entry("fig09"), "V-B",
          "VANS validation: latency curves vs. Optane reference", 4.0,
          ["vans", "optane-ref"]),
    _spec("fig10", _Entry("fig10"), "V-B",
          "capacity/DIMM-count scaling validation", 6.0,
          ["vans"]),
    _spec("fig11", _Entry("fig11"), "V-B",
          "SPEC IPC, LLC-miss and speedup validation", 11.0,
          ["vans-6dimm", "ramulator-ddr4", "ramulator-pcm"]),
    _spec("fig12", _Entry("fig12"), "V-C",
          "wear-leveling case study (YCSB-like hot lines)", 6.0,
          ["vans"]),
    _spec("fig13", _Entry("fig13"), "V-C",
          "Lazy cache and Pre-translation speedups", 51.0,
          ["vans"]),
    _spec("tables", _Entry("tables"), "tables",
          "Tables I, II, IV and V: tools, probers, SPEC MPKI, config",
          3.0, ["ramulator-ddr4"]),
    # beyond the paper's figures: supporting studies
    _spec("scaling", _Entry("scaling"), "extra",
          "throughput scaling with thread count", 3.0,
          ["vans", "ramulator-ddr4"]),
    _spec("ablation", _Entry("ablation"), "extra",
          "microarchitectural ablations (combine window, engine hold)", 5.0,
          ["vans"]),
    _spec("energy", _Entry("energy_study"), "extra",
          "energy model over the access mix", 3.0,
          ["vans"]),
    _spec("numa", _Entry("numa_study"), "extra",
          "near/far socket latency study", 3.0,
          ["vans", "ramulator-ddr4"]),
    _spec("bandwidth", _Entry("bandwidth_matrix"), "extra",
          "bandwidth matrix across patterns and targets", 4.0,
          ["vans", "ramulator-ddr4"]),
]}


def validate_ids(ids: Sequence[str]) -> List[str]:
    """Check every id against the registry; raises
    :class:`UnknownExperimentError` naming the known ids otherwise."""
    for exp_id in ids:
        if exp_id not in REGISTRY:
            raise UnknownExperimentError(exp_id, REGISTRY)
    return list(ids)


def filter_ids(pattern: str) -> List[str]:
    """Ids whose id, section, or description contains ``pattern``."""
    needle = pattern.lower()
    return [s.id for s in REGISTRY.values()
            if needle in s.id.lower()
            or needle in s.section.lower()
            or needle in s.description.lower()]


def make_flight_recorder(spec: Optional[Mapping[str, object]]
                         ) -> Optional[FlightRecorder]:
    """Build a per-experiment recorder from CLI-level flight options
    (``None`` -> recording off)."""
    if spec is None:
        return None
    return FlightRecorder(**spec)


def _fault_injector(faults: Optional[Mapping[str, object]]
                    ) -> Optional[FaultInjector]:
    """A fresh injector + persistence checker for a plan document (or
    :class:`FaultPlan`); ``None`` when no plan was given."""
    if faults is None:
        return None
    plan = (faults if isinstance(faults, FaultPlan)
            else FaultPlan.from_dict(faults))
    return FaultInjector(plan, checker=PersistenceChecker())


def run_experiment(exp_id: str, scale: Scale = Scale.SMOKE,
                   seed: int = DEFAULT_SEED,
                   flight: Optional[FlightRecorder] = None,
                   telemetry: Optional[Mapping[str, object]] = None,
                   faults: Optional[Mapping[str, object]] = None,
                   session: Optional[Mapping[str, object]] = None,
                   progress: Optional[ProgressReporter] = None,
                   prof: Optional[Profiler] = None
                   ) -> List[ExperimentResult]:
    """Run one experiment id; returns its results as a flat list.

    Re-seeds the global RNG from ``(seed, exp_id)`` (experiments draw
    all randomness through explicitly seeded generators already; this is
    belt and braces for anything stdlib-level) and attaches the merged
    instrumentation snapshot of every registry-built system to each
    result, plus the wall-clock seconds the run took (``result.wall_s``).

    With a ``flight`` recorder, every system the registry builds during
    the run records per-request spans onto it, and each result carries
    the sampling summary plus per-op latency breakdowns in
    ``result.flight``.

    ``telemetry`` is a sampler *spec* (``{"interval_ps": ...}``), not a
    live sampler: the per-experiment :class:`TelemetrySampler` is always
    constructed here, so serial and worker-process runs build identical
    samplers and their timelines stay bit-identical.  Each result then
    carries ``{"summary": ..., "timeline": ...}`` in ``result.telemetry``.

    ``faults`` is likewise a *plan document* (``repro.faultplan/1``
    mapping, or a :class:`FaultPlan`), not a live injector: the
    per-experiment :class:`FaultInjector` + :class:`PersistenceChecker`
    are constructed here and attached to every system the registry
    builds, and each result carries the fault report (injection
    counters plus the persistence audit when a power cut triggered) in
    ``result.faults``.

    ``session`` is serving identity (session/tenant ids) recorded onto
    ``result.session`` — and nowhere inside the simulation payload, so
    a served run stays bit-identical to the batch equivalent.

    ``progress`` is a live :class:`~repro.progress.ProgressReporter`
    (the caller owns its ``emit`` channel — the serve worker pool wires
    it to the worker pipe).  Frames are advisory and never enter the
    result payload: a run with a reporter attached is byte-identical to
    one without.

    ``prof`` is a live :class:`~repro.prof.Profiler`: every system the
    registry builds during the run gets its ``profile_points()``
    wrapped for host wall-clock attribution, and the wrappers are
    removed when the run ends.  Profiling is host-side observation
    only — simulated timings, results, and exports stay bit-identical.
    """
    spec = REGISTRY.get(exp_id)
    if spec is None:
        raise UnknownExperimentError(exp_id, REGISTRY)
    random.seed(f"repro-exp:{seed}:{exp_id}")
    start = time.time()
    sampler = TelemetrySampler(**telemetry) if telemetry is not None else None
    injector = _fault_injector(faults)
    with flight_session(flight), telemetry_session(sampler), \
            faults_session(injector), progress_session(progress), \
            prof_session(prof):
        if progress is not None:
            progress.phase(exp_id)
        with Collection() as collection:
            out = spec.run(scale)
            results = [out] if isinstance(out, ExperimentResult) else list(out)
            snapshot = collection.merged()
    wall_s = time.time() - start
    flight_summary: Dict[str, object] = {}
    if flight is not None:
        flight_summary = {
            "sampling": flight.sampling_summary(),
            "breakdowns": {op: bd.as_dict()
                           for op, bd in breakdowns(flight.records).items()},
        }
    telemetry_doc: Dict[str, object] = {}
    if sampler is not None:
        telemetry_doc = {"summary": sampler.summary(),
                         "timeline": sampler.timeline.as_dict()}
    faults_doc: Dict[str, object] = {}
    if injector is not None:
        faults_doc = fault_report(injector)
    session_doc = dict(session) if session is not None else {}
    for result in results:
        result.instrumentation = dict(snapshot)
        result.flight = dict(flight_summary)
        result.telemetry = dict(telemetry_doc)
        result.faults = dict(faults_doc)
        result.session = dict(session_doc)
        result.wall_s = wall_s
    return results


#: request-stream ops understood by :func:`run_stream` — the full
#: persistency vocabulary: ``read``/``write`` (nt-store) hit the memory
#: system as before, ``write_nt`` is an explicit nt-store alias,
#: ``store`` is a regular cached store (volatile until flushed+fenced),
#: ``flush`` is a ``clwb``/``clflushopt``-style cache-line write-back,
#: and ``fence`` drains/orders.
_STREAM_OPS = ("read", "write", "write_nt", "store", "flush", "fence")

#: simulated retire latency of a regular cached store.  A store
#: completes into the CPU cache hierarchy, never reaching the memory
#: system the simulator models, so its cost is a constant — what
#: matters for persistency is program order, which back-to-back
#: issuance preserves.
_STORE_PS = 1_000


def run_stream(target: str, ops: Sequence[Mapping[str, object]],
               overrides: Optional[Mapping[str, object]] = None,
               faults: Optional[Mapping[str, object]] = None,
               session: Optional[Mapping[str, object]] = None,
               progress: Optional[ProgressReporter] = None,
               prof: Optional[Profiler] = None
               ) -> Dict[str, object]:
    """Drive a registry target with a raw request stream.

    Each op is a mapping ``{"op": <one of _STREAM_OPS>}`` with optional
    ``addr`` (default 0), ``count`` (default 1), and ``stride`` (default
    64) so clients can express compact sweeps without shipping one JSON
    object per request.  Ops execute back-to-back in simulated time
    (each issues at the prior op's completion), which makes the outcome
    a pure function of the stream — the served/batch bit-identity
    contract for raw streams.

    Op semantics:

    * ``read`` / ``write`` — memory-system accesses as before
      (``write`` is the nt-store path; its return is the persistence
      point);
    * ``write_nt`` — explicit nt-store.  Uses the target's ``write_nt``
      method when it has one (the PMEP emulator), else ``write``;
    * ``store`` — a regular cached store: retires in ``_STORE_PS`` of
      CPU time without touching the memory system, acknowledged in the
      ``cache`` persistence domain (volatile until flushed + fenced);
    * ``flush`` — cache-line write-back (``clwb``/``clflushopt``).
      Rides the write datapath for timing, recorded as a flush (not an
      ack) in the persistence history via the injector's flush scope;
    * ``fence`` — drain/order (``sfence`` after nt-stores, the
      persistence barrier after flushes).

    ``faults`` is a plan document (``repro.faultplan/1`` mapping or a
    :class:`FaultPlan`): a per-stream :class:`FaultInjector` +
    :class:`PersistenceChecker` are constructed here and attached to
    the target build, and the result carries the fault report — with
    the persistence audit when a power cut triggered — under
    ``"faults"`` (``{}`` when no plan).  This is what the litmus
    harness (:mod:`repro.litmus`) builds on.

    Returns a JSON-safe summary: per-op counts, final simulated time,
    cumulative latency, the target's instrumentation snapshot, and the
    fault report.
    """
    injector = _fault_injector(faults)
    with faults_session(injector), progress_session(progress), \
            prof_session(prof), Collection() as collection:
        if progress is not None:
            progress.phase(f"stream:{target}")
        system = registry.build(target, **dict(overrides or {}))
        fa = injector if injector is not None else NULL_FAULTS
        now = 0
        counts = {op: 0 for op in _STREAM_OPS}
        busy_ps = 0
        for item in ops:
            op = str(item.get("op", "read"))
            if op not in _STREAM_OPS:
                raise ValueError(
                    f"unknown stream op {op!r}"
                    f"{_suggest(op, _STREAM_OPS)}"
                    f"; choose from: {', '.join(_STREAM_OPS)}")
            addr = int(item.get("addr", 0))
            count = int(item.get("count", 1))
            stride = int(item.get("stride", 64))
            for i in range(count):
                issued = now
                if op == "fence":
                    now = system.fence(now)
                elif op == "store":
                    now = issued + _STORE_PS
                    fa.note_store(addr + i * stride, now)
                elif op == "flush":
                    with fa.flush_scope():
                        now = system.write(addr + i * stride, now)
                elif op == "write_nt":
                    method = getattr(system, "write_nt", None) or system.write
                    now = method(addr + i * stride, now)
                else:
                    now = getattr(system, op)(addr + i * stride, now)
                busy_ps += now - issued
            counts[op] += count
        snapshot = collection.merged()
    faults_doc: Dict[str, object] = {}
    if injector is not None:
        faults_doc = fault_report(injector)
    total = sum(counts.values())
    return {
        "target": target,
        "overrides": dict(overrides or {}),
        "ops": total,
        "counts": counts,
        "sim_end_ps": now,
        "busy_ps": busy_ps,
        "mean_latency_ps": (busy_ps / total) if total else 0.0,
        "instrumentation": snapshot,
        "faults": faults_doc,
        "session": dict(session) if session is not None else {},
    }


#: job tuple: (exp_id, scale_value, seed, flight_spec, telemetry_spec,
#:             faults_spec) — retries re-send the identical tuple, so
#: re-executions preserve the seed and every session spec bit-for-bit.
_Job = Tuple[str, str, int, Optional[Dict[str, object]],
             Optional[Dict[str, object]], Optional[Mapping[str, object]]]


def _worker(job: _Job) -> Tuple[str, List[ExperimentResult], float,
                                List[FlightRecord]]:
    exp_id, scale_value, seed, flight_spec, telemetry_spec, faults_spec = job
    start = time.time()
    recorder = make_flight_recorder(flight_spec)
    results = run_experiment(exp_id, Scale(scale_value), seed,
                             flight=recorder, telemetry=telemetry_spec,
                             faults=faults_spec)
    records = recorder.records if recorder is not None else []
    return exp_id, results, time.time() - start, records


def _failure_result(exp_id: str, status: str, error: str,
                    attempts: int) -> ExperimentResult:
    """Placeholder result for an experiment that never produced one."""
    spec = REGISTRY.get(exp_id)
    result = ExperimentResult(
        experiment=exp_id,
        title=spec.description if spec is not None else exp_id,
        notes="no data: experiment did not complete",
    )
    result.status = status
    result.error = error
    result.attempts = attempts
    return result


def campaign_exit_code(results: Sequence[ExperimentResult]) -> int:
    """0 when every result is ok, 1 when none are, 4 when partial."""
    if not results:
        return EXIT_ALL_FAILED
    ok = sum(1 for r in results if r.status == "ok")
    if ok == len(results):
        return EXIT_OK
    return EXIT_ALL_FAILED if ok == 0 else EXIT_PARTIAL
