"""Fault injection and power-failure persistence checking.

The paper's premise is that Optane DIMMs fail in subtle,
microarchitecture-specific ways: the ADR power-fail domain bounds what
survives a power cut (the iMC WPQ drains; everything above it is lost),
media cells wear out and go uncorrectable, and the DDR-T link can
degrade under thermal throttling.  This package makes those failure
modes first-class, schema'd, and deterministic:

* :mod:`repro.faults.plan` — :class:`FaultPlan`/:class:`FaultSpec`
  documents (schema ``repro.faultplan/1``) scheduling power cuts,
  media uncorrectable-error regions, transient media-latency spikes,
  and stuck/slow DDR-T link episodes at simulated times or request
  counts;
* :mod:`repro.faults.injector` — :class:`FaultInjector`, consulted by
  hooks in the iMC, DDR-T link, DIMM, 3D-XPoint media, the wear leveler
  and the baselines through each system's :class:`~repro.hooks.Hooks`
  bundle, whose default is the no-op :data:`NULL_FAULTS`;
* :mod:`repro.faults.persistence` — :class:`PersistenceChecker`, an
  auditor of the write/fence history that reports *lost acknowledged
  writes* after an injected power cut (what the program was told is
  durable but is not in the post-failure durable image);
* :mod:`repro.faults.report` — the combined fault-run document
  (schema ``repro.faultreport/1``) CLIs and the experiment runner
  attach to results.

The names re-exported here load their submodule on first use
(:mod:`repro._lazy`): every system's hooks need only
:data:`NULL_FAULTS` and :func:`current`, so a run without a plan never
imports the plan, persistence or report modules.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.faults.injector": [
        "NULL_FAULTS", "FaultInjector", "NullFaultInjector", "current",
        "session"],
    "repro.faults.plan": [
        "FAULTPLAN_SCHEMA", "KINDS", "FaultPlan", "FaultSpec", "load_plan",
        "power_cut_plan", "random_plan", "save_plan", "validate_plan"],
    "repro.faults.persistence": [
        "LOSS_REASONS", "PERSISTENCE_SCHEMA", "PersistenceChecker",
        "PersistenceReport", "validate_persistence", "validate_report"],
    "repro.faults.report": [
        "FAULTREPORT_SCHEMA", "fault_report", "render_fault_report",
        "validate_fault_report"],
})
