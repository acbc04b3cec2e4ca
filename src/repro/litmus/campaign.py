"""The litmus campaign driver: thousands of seeded cases per run.

Case seeds derive from one campaign seed
(:func:`repro.common.rng.make_rng`, stream ``litmus-campaign``), and
targets round-robin over the fuzzed set, so one integer reproduces the
whole campaign bit-for-bit.  Execution modes:

* **serial** — in-process, the default;
* **parallel** (``workers > 1``) — cases are batched into child
  processes under :func:`repro.common.supervise.run_jobs`, the policy
  the experiment runner uses too: per-batch watchdog deadline,
  exponential-backoff retries, quarantine after the retry budget — a
  hung or crashed simulator build loses one batch, never the
  campaign;
* **thin client** — every case is submitted as a stream job through a
  running ``repro-serve`` daemon, exercising the serve plane as
  fuzzing infrastructure.

Campaign counters ride a real
:class:`~repro.instrument.InstrumentBus` (``litmus.cases``,
``litmus.violations``, …) whose snapshot lands in the report, and
progress frames flow through an attached
:class:`~repro.progress.ProgressReporter` (simulated time = cumulative
``sim_end_ps`` across finished cases).
"""

from __future__ import annotations

import traceback
from typing import Any, Dict, List, Optional, Sequence

from repro.common.rng import make_rng
from repro.common.supervise import run_jobs
from repro.experiments.exec import EXIT_ALL_FAILED, EXIT_OK, EXIT_PARTIAL
from repro.instrument import InstrumentBus
from repro.litmus.oracle import check, outcome_of, run_case
from repro.litmus.program import DEFAULT_TARGETS, LitmusCase, random_case

#: campaign-report document version
LITMUS_CAMPAIGN_SCHEMA = "repro.litmus-campaign/1"

#: CLIs return this when the oracle caught a contract violation
EXIT_VIOLATION = 3

#: cases per watchdogged child batch (small enough that losing a
#: quarantined batch costs little, large enough to amortize the fork)
_BATCH = 25

#: cap on violation/loss-example payloads carried in the report
_MAX_EXAMPLES = 20


class _BusView:
    """Adapter letting a ProgressReporter snapshot the campaign bus."""

    def __init__(self, bus: InstrumentBus) -> None:
        self._bus = bus

    def instrument_snapshot(self) -> Dict[str, Any]:
        return self._bus.snapshot()


def _case_for(campaign_seed: int, index: int, case_seed: int,
              targets: Sequence[str]) -> LitmusCase:
    target = targets[index % len(targets)]
    case = random_case(case_seed, target=target)
    return LitmusCase(
        name=f"campaign-{campaign_seed}-{index}-{target}",
        target=case.target, overrides=case.overrides, ops=case.ops,
        cut_at_request=case.cut_at_request, seed=case.seed)


def _run_one(doc: Dict[str, Any], client: Optional[Any] = None
             ) -> Dict[str, Any]:
    """Execute one case doc (through ``client`` when given); JSON-safe
    per-case record."""
    case = LitmusCase.from_dict(doc)
    result = run_case(case, client=client)
    verdict = check(case, result)
    return {
        "case": doc,
        "ok": verdict.ok,
        "violations": [dict(v) for v in verdict.violations],
        "outcome": dict(verdict.outcome),
        "contract": verdict.contract,
        "sim_end_ps": int(result.get("sim_end_ps", 0)),
    }


def _run_batch(batch: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [_run_one(doc) for doc in batch]


def run_campaign(seed: int, cases: int,
                 targets: Sequence[str] = DEFAULT_TARGETS,
                 workers: int = 1,
                 timeout_s: float = 120.0,
                 retries: int = 1,
                 client: Optional[Any] = None,
                 progress: Optional[Any] = None,
                 bus: Optional[InstrumentBus] = None) -> Dict[str, Any]:
    """Run a seeded litmus campaign; returns the campaign report.

    ``client`` switches every case to thin-client execution through a
    ``repro-serve`` daemon (serial; the daemon owns parallelism).
    ``progress`` is a live :class:`~repro.progress.ProgressReporter`.
    """
    bus = bus if bus is not None else InstrumentBus()
    c_cases = bus.counter("litmus.cases")
    c_ok = bus.counter("litmus.ok")
    c_violations = bus.counter("litmus.violations")
    c_losses = bus.counter("litmus.losses")
    c_cuts = bus.counter("litmus.cuts")
    c_failed = bus.counter("litmus.failed")

    rng = make_rng(seed, "litmus-campaign")
    case_docs = [
        _case_for(seed, index, rng.getrandbits(32), targets).to_dict()
        for index in range(cases)]

    if progress is not None:
        progress.attach(_BusView(bus))
        progress.phase("litmus-campaign")

    records: List[Dict[str, Any]] = []
    failures: List[Dict[str, Any]] = []
    if workers > 1 and client is None:
        batches = [case_docs[start:start + _BATCH]
                   for start in range(0, len(case_docs), _BATCH)]
        settled = {}
        for outcome in run_jobs(_run_batch, batches, workers, timeout_s,
                                retries):
            if outcome.retry_in_s is None:          # ok or quarantined
                settled[outcome.index] = outcome
        # batches settle in whatever order their processes finish; the
        # report follows case order, as a serial campaign's does
        for index, batch in enumerate(batches):
            outcome = settled[index]
            if outcome.status == "ok":
                records.extend(outcome.value)
            else:
                failures.extend({"case": doc, "error": outcome.error,
                                 "attempts": outcome.attempt}
                                for doc in batch)
    else:
        sim_total = 0
        for doc in case_docs:
            try:
                record = _run_one(doc, client=client)
            except Exception:
                failures.append({"case": doc,
                                 "error": traceback.format_exc(),
                                 "attempts": 1})
                continue
            records.append(record)
            sim_total += record["sim_end_ps"]
            if progress is not None:
                progress.tick(sim_total)

    violations: List[Dict[str, Any]] = []
    loss_families: Dict[str, int] = {}
    loss_examples: List[Dict[str, Any]] = []
    seen_families = set()
    for record in records:
        c_cases.add()
        if record["ok"]:
            c_ok.add()
        else:
            c_violations.add()
            for violation in record["violations"]:
                if len(violations) < _MAX_EXAMPLES:
                    violations.append({"name": record["case"]["name"],
                                       "case": record["case"],
                                       **violation})
        outcome = record["outcome"]
        if outcome.get("cut"):
            c_cuts.add()
        for entry in outcome.get("lost", ()):
            c_losses.add()
            family = (f"{record['case']['target']}/{entry[1]}/"
                      f"{entry[2]}")
            loss_families[family] = loss_families.get(family, 0) + 1
            if family not in seen_families \
                    and len(loss_examples) < _MAX_EXAMPLES:
                seen_families.add(family)
                example = dict(record["case"])
                example["expected"] = dict(outcome)
                loss_examples.append({"family": family, "case": example})
    for _failure in failures:
        c_failed.add()

    if progress is not None:
        progress.finalize()

    report = {
        "schema": LITMUS_CAMPAIGN_SCHEMA,
        "seed": seed,
        "cases": cases,
        "targets": list(targets),
        "workers": workers,
        "completed": len(records),
        "failed": len(failures),
        "violation_count": sum(1 for r in records if not r["ok"]),
        "violations": violations,
        "loss_families": loss_families,
        "loss_examples": loss_examples,
        "failures": [{"name": f["case"]["name"], "error": f["error"],
                      "attempts": f["attempts"]} for f in failures],
        "counters": bus.snapshot(),
    }
    report["exit_code"] = campaign_exit_code(report)
    return report


def campaign_exit_code(report: Dict[str, Any]) -> int:
    """3 on any oracle violation, 1 when nothing completed, 4 on a
    partial campaign, 0 when everything ran clean."""
    if report.get("violation_count"):
        return EXIT_VIOLATION
    if report.get("cases") and not report.get("completed"):
        return EXIT_ALL_FAILED
    if report.get("failed"):
        return EXIT_PARTIAL
    return EXIT_OK
