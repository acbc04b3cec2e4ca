"""Host-side wall-clock profiler for the simulator itself.

``repro.prof`` attributes the *host's* wall time (where the Python
process spends its cycles) per station/event-handler callsite — the
complement of the flight recorder, which attributes *simulated*
nanoseconds.  It is the fifth zero-cost hook after the instrument bus,
flight recorder, telemetry, and progress sinks: uninstrumented runs
see only the class-level :data:`NULL_PROF` null object, and nothing is
wrapped.
"""

from repro.prof.profiler import (
    NULL_PROF,
    PROFILE_SCHEMA,
    NullProfiler,
    Profiler,
    current,
    profile_from_dict,
    session,
    uninstrument,
    validate_profile,
)
from repro.prof.export import (
    merge_chrome,
    parse_collapsed,
    to_chrome,
    to_collapsed,
    to_speedscope,
)
from repro.prof.diff import Mover, diff_profiles, format_movers

__all__ = [
    "NULL_PROF",
    "PROFILE_SCHEMA",
    "NullProfiler",
    "Profiler",
    "current",
    "session",
    "uninstrument",
    "profile_from_dict",
    "validate_profile",
    "to_collapsed",
    "parse_collapsed",
    "to_speedscope",
    "to_chrome",
    "merge_chrome",
    "Mover",
    "diff_profiles",
    "format_movers",
]
