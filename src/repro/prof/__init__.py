"""Host-side wall-clock profiler for the simulator itself.

``repro.prof`` attributes the *host's* wall time (where the Python
process spends its cycles) per station callsite — the
complement of the flight recorder, which attributes *simulated*
nanoseconds.  Outside a profiling session the current profiler is the
no-op :data:`NULL_PROF` and nothing is wrapped; inside one, the
``profile_points()`` methods of every registry-built system are wrapped
instance-side and unwrapped again when the session ends.
"""

from repro.prof.profiler import (
    NULL_PROF,
    PROFILE_SCHEMA,
    NullProfiler,
    Profiler,
    current,
    profile_from_dict,
    session,
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
