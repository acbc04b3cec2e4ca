"""Per-request flight recorder: span events, sampling, breakdown, export.

A system's stats registry aggregates; the flight recorder explains.  See
``docs/ARCHITECTURE.md`` ("Observability") for the split and the span
schema.

The names re-exported here load their submodule on first use
(:mod:`repro._lazy`): a run without a recorder imports only
:mod:`repro.flight.recorder`, for :data:`NULL_FLIGHT` and
:func:`current`.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.flight.recorder": [
        "MODES", "NULL_FLIGHT", "FlightRecord", "FlightRecorder",
        "InstantEvent", "NullFlightRecorder", "SpanEvent", "current",
        "session"],
    "repro.flight.report": [
        "OTHER", "LatencyBreakdown", "StageStats", "attribute",
        "breakdown_by_size", "breakdowns"],
    "repro.flight.chrome": ["save_chrome_trace", "to_chrome_trace"],
})
