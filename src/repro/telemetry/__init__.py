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
"""

from repro.telemetry.export import (
    render_timeline,
    save_chrome_counters,
    save_timelines_csv,
    sparkline,
    to_chrome_counters,
)
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    config_hash,
    git_info,
    run_manifest,
    validate_manifest,
)
from repro.telemetry.sampler import (
    DEFAULT_INTERVAL_PS,
    NULL_TELEMETRY,
    NullTelemetry,
    TelemetrySampler,
    current,
    session,
)
from repro.telemetry.series import KINDS, TimeSeries, Timeline

__all__ = [
    "DEFAULT_INTERVAL_PS",
    "KINDS",
    "MANIFEST_SCHEMA",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "TelemetrySampler",
    "TimeSeries",
    "Timeline",
    "config_hash",
    "current",
    "git_info",
    "render_timeline",
    "run_manifest",
    "save_chrome_counters",
    "save_timelines_csv",
    "session",
    "sparkline",
    "to_chrome_counters",
    "validate_manifest",
]
