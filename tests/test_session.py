"""The shared session stack behind every null-object hook."""

from repro.common.session import SessionStack
from repro.faults import NULL_FAULTS
from repro.faults import current as current_faults
from repro.faults import session as faults_session
from repro.flight import NULL_FLIGHT
from repro.flight import current as current_flight
from repro.flight import session as flight_session
from repro.progress import NULL_PROGRESS
from repro.progress import current as current_progress
from repro.progress import session as progress_session
from repro.prof import NULL_PROF
from repro.prof import current as current_prof
from repro.prof import session as prof_session
from repro.telemetry import NULL_TELEMETRY
from repro.telemetry import current as current_telemetry
from repro.telemetry import session as telemetry_session

NULL = object()


def test_innermost_wins_and_unwinds():
    stack = SessionStack(NULL)
    outer, inner = object(), object()
    assert stack.current() is NULL
    with stack.session(outer) as got:
        assert got is outer and stack.current() is outer
        with stack.session(inner):
            assert stack.current() is inner
        assert stack.current() is outer
    assert stack.current() is NULL


def test_none_is_a_noop_yielding_the_null():
    exits = []
    stack = SessionStack(NULL, on_exit=exits.append)
    with stack.session(None) as got:
        assert got is NULL and stack.current() is NULL
    assert exits == []


def test_on_exit_runs_after_pop_even_on_error():
    seen = []
    stack = SessionStack(NULL, on_exit=lambda hook: seen.append(
        (hook, stack.current())))
    hook = object()
    try:
        with stack.session(hook):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert seen == [(hook, NULL)]


def test_every_hook_module_defaults_to_its_null_and_accepts_none():
    for current, session, null in (
            (current_flight, flight_session, NULL_FLIGHT),
            (current_telemetry, telemetry_session, NULL_TELEMETRY),
            (current_faults, faults_session, NULL_FAULTS),
            (current_progress, progress_session, NULL_PROGRESS),
            (current_prof, prof_session, NULL_PROF)):
        assert current() is null
        with session(None) as got:
            assert got is null and current() is null
