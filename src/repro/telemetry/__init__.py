"""Sim-time telemetry: time-series sampling, manifests, the metric gate.

Public surface:

* :class:`TelemetrySampler` / :data:`NULL_TELEMETRY` / :func:`session` —
  the sim-clock-driven sampler (zero-cost when disabled);
* :class:`Timeline` / :class:`TimeSeries` — the typed series it fills;
* :func:`run_manifest` / :func:`validate_manifest` — run attribution;
* :func:`render_timeline` / :func:`sparkline` / CSV and Chrome-counter
  exporters — ways to look at a timeline;
* :mod:`repro.telemetry.bench` — ``repro-bench``, the deterministic
  model-metric gate (host time is measured by ``perfbench/``).

The names re-exported here load their submodule on first use
(:mod:`repro._lazy`): a plain run imports only the sampler and its
series, never the manifest (``hashlib``, ``subprocess``, ``platform``)
or the exporters (``csv``).
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.telemetry.sampler": [
        "DEFAULT_INTERVAL_PS", "NULL_TELEMETRY", "NullTelemetry",
        "TelemetrySampler", "current", "session"],
    "repro.telemetry.series": ["KINDS", "TimeSeries", "Timeline"],
    "repro.telemetry.manifest": [
        "MANIFEST_SCHEMA", "config_hash", "git_info", "run_manifest",
        "validate_manifest"],
    "repro.telemetry.export": [
        "render_timeline", "save_chrome_counters", "save_timelines_csv",
        "sparkline", "to_chrome_counters"],
})
