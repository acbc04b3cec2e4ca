"""Host-side wall-clock profiler for the simulator itself.

``repro.prof`` attributes the *host's* wall time (where the Python
process spends its cycles) per station callsite — the
complement of the flight recorder, which attributes *simulated*
nanoseconds.  Outside a profiling session the current profiler is the
no-op :data:`NULL_PROF` and nothing is wrapped; inside one, the
``profile_points()`` methods of every registry-built system are wrapped
instance-side and unwrapped again when the session ends.

The names re-exported here load their submodule on first use
(:mod:`repro._lazy`): a run imports only :mod:`repro.prof.profiler`,
never the exporters or the diff.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.prof.profiler": [
        "NULL_PROF", "PROFILE_SCHEMA", "NullProfiler", "Profiler", "current",
        "session", "profile_from_dict", "validate_profile"],
    "repro.prof.export": [
        "to_collapsed", "parse_collapsed", "to_speedscope", "to_chrome",
        "merge_chrome"],
    "repro.prof.diff": ["Mover", "diff_profiles", "format_movers"],
})
