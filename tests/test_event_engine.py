"""Discrete-event kernel and the request types it carries.

Firing order is ascending time, FIFO among equal timestamps.  Random
programs of schedule / cancel / schedule-during-dispatch / partial
``run(until)`` / cancel-then-reschedule steps are checked against a
direct oracle: the firing trace equals every scheduled, never-cancelled
event sorted by (time, schedule order).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.engine.event import Engine
from repro.engine.request import Op, Request, RequestPool


def test_events_fire_in_time_order():
    engine = Engine()
    order = []
    engine.schedule_at(30, order.append, "c")
    engine.schedule_at(10, order.append, "a")
    engine.schedule_at(20, order.append, "b")
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 30


def test_fifo_among_equal_times():
    engine = Engine()
    order = []
    for tag in "abc":
        engine.schedule_at(5, order.append, tag)
    engine.run()
    assert order == ["a", "b", "c"]


def test_relative_schedule():
    engine = Engine()
    engine.advance(100)
    fired = []
    engine.schedule(50, fired.append, 1)
    engine.run()
    assert engine.now == 150
    assert fired == [1]


def test_cannot_schedule_in_past():
    engine = Engine()
    engine.advance(100)
    with pytest.raises(SimulationError):
        engine.schedule_at(50, lambda: None)


def test_cancel_event():
    engine = Engine()
    fired = []
    handle = engine.schedule_at(10, fired.append, "x")
    handle.cancel()
    engine.run()
    assert fired == []


def test_run_until_stops_clock():
    engine = Engine()
    fired = []
    engine.schedule_at(10, fired.append, 1)
    engine.schedule_at(100, fired.append, 2)
    engine.run(until=50)
    assert fired == [1]
    assert engine.now == 50
    engine.run()
    assert fired == [1, 2]


def test_run_until_before_now_raises():
    """``run(until)`` never rewinds the clock into the simulated past."""
    engine = Engine()
    engine.advance(100)
    engine.schedule_at(200, lambda: None)
    with pytest.raises(SimulationError):
        engine.run(until=50)
    assert engine.now == 100
    with pytest.raises(SimulationError):
        engine.schedule_at(60, lambda: None)
    assert engine.run() == 200


def test_events_can_schedule_events():
    engine = Engine()
    log = []

    def chain(depth):
        log.append(depth)
        if depth < 3:
            engine.schedule(10, chain, depth + 1)

    engine.schedule_at(0, chain, 0)
    engine.run()
    assert log == [0, 1, 2, 3]
    assert engine.now == 30


def test_step_fires_single_event():
    engine = Engine()
    fired = []
    engine.schedule_at(5, fired.append, "a")
    engine.schedule_at(6, fired.append, "b")
    engine.step()
    assert fired == ["a"]
    assert engine.pending() == 1


def test_advance_rejects_backwards():
    engine = Engine()
    engine.advance(10)
    with pytest.raises(SimulationError):
        engine.advance(5)


def test_processed_events_counter():
    engine = Engine()
    for t in range(5):
        engine.schedule_at(t, lambda: None)
    engine.run()
    assert engine.processed_events == 5


# ---------------------------------------------------------------------------
# random programs against the sorted schedule
# ---------------------------------------------------------------------------

#: program op codes: (kind, a, b)
#:   kind 0 — schedule a recorder at now+a
#:   kind 1 — cancel the (a mod live)-th still-live handle
#:   kind 2 — schedule at now+a a callback that schedules a recorder at +b
#:            when it fires (schedule-during-dispatch)
#:   kind 3 — run(until=now+a) (partial drain, remnant state)
#:   kind 4 — cancel-then-reschedule: cancel like kind 1, schedule at now+b
program_entries = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=120),
)


def run_program(engine, program):
    """Interpret ``program``; returns the (time, label) firing trace, the
    (time, label) of every scheduled, never-cancelled event, and every
    ``run(until)`` bound.  Labels are issued in schedule order."""
    fired = []
    handles = {}       # label -> handle, while scheduled and unfired
    times = {}         # label -> scheduled time, unless cancelled
    labels = itertools.count()
    untils = [0]

    def schedule(delay, chain_delay=None):
        label = next(labels)
        times[label] = engine.now + delay
        handles[label] = engine.schedule(delay, fire, label, chain_delay)

    def fire(label, chain_delay):
        fired.append((engine.now, label))
        del handles[label]
        if chain_delay is not None:
            schedule(chain_delay)

    def cancel(a):
        label = sorted(handles)[a % len(handles)]
        handles.pop(label).cancel()
        del times[label]

    for kind, a, b in program:
        if kind == 0:
            schedule(a)
        elif kind == 1 and handles:
            cancel(a)
        elif kind == 2:
            schedule(a, chain_delay=b)
        elif kind == 3:
            untils.append(engine.now + a)
            engine.run(until=untils[-1])
        elif kind == 4 and handles:
            cancel(a)
            schedule(b)
    engine.run()
    return fired, sorted((t, label) for label, t in times.items()), untils


@settings(max_examples=120, deadline=None)
@given(program=st.lists(program_entries, max_size=60))
def test_firing_order_matches_sorted_schedule(program):
    engine = Engine()
    fired, expected, untils = run_program(engine, program)
    assert fired == expected
    assert engine.processed_events == len(expected)
    assert engine.pending() == 0
    assert engine.now == max([t for t, _ in expected] + untils)


@settings(max_examples=60, deadline=None)
@given(
    times=st.lists(st.integers(min_value=0, max_value=500),
                   min_size=1, max_size=80),
    until=st.integers(min_value=0, max_value=600),
)
def test_run_until_matches_sorted_schedule(times, until):
    engine = Engine()
    fired = []
    for i, t in enumerate(times):
        engine.schedule_at(t, lambda i=i: fired.append((engine.now, i)))
    order = sorted((t, i) for i, t in enumerate(times))
    early = [entry for entry in order if entry[0] <= until]
    assert engine.run(until=until) == until
    assert fired == early
    assert engine.pending() == len(times) - len(early)
    engine.run()
    assert fired == order
    assert engine.now == max(until, order[-1][0])


def test_equal_timestamp_fifo():
    engine = Engine()
    order = []
    for i in range(50):
        engine.schedule_at(1000, order.append, i)
    # same-timestamp events scheduled *during* dispatch fire after every
    # earlier-scheduled equal-time event
    engine.schedule_at(1000, lambda: engine.schedule_at(
        1000, order.append, "late"))
    engine.schedule_at(1000, order.append, 50)
    engine.run()
    assert order == list(range(51)) + ["late"]
    assert engine.now == 1000


def test_far_future_events_keep_order():
    engine = Engine()
    order = []
    # far-future first, then near events
    engine.schedule_at(10_000_000, order.append, "far2")
    engine.schedule_at(9_999_999, order.append, "far1")
    for t in (5, 3, 9):
        engine.schedule_at(t, order.append, t)
    engine.run()
    assert order == [3, 5, 9, "far1", "far2"]
    assert engine.processed_events == 5


# ---------------------------------------------------------------------------
# lazy deletion / compaction
# ---------------------------------------------------------------------------

def test_cancel_compaction_bounds_queue():
    engine = Engine()
    handles = [engine.schedule_at(10_000 + i, lambda: None)
               for i in range(2000)]
    for handle in handles[:1990]:
        handle.cancel()
    # dead entries must have been compacted away, not accumulated:
    # >1000 cancelled with only 10 live crosses the half-queue threshold
    assert engine.pending() < 200
    engine.run()
    assert engine.processed_events == 10


def test_cancelled_events_never_fire():
    engine = Engine()
    fired = []
    keep = engine.schedule_at(50, fired.append, "keep")
    for i in range(40):
        engine.schedule_at(50, fired.append, i).cancel()
    assert keep is not None
    engine.run()
    assert fired == ["keep"]


def test_cancel_after_fire_is_noop():
    engine = Engine()
    fired = []
    first = engine.schedule_at(5, fired.append, "first")
    engine.run()
    second = engine.schedule_at(7, fired.append, "second")
    first.cancel()
    assert first.cancelled is False
    assert second.cancelled is False
    engine.run()
    assert fired == ["first", "second"]
    assert engine.processed_events == 2


# ---------------------------------------------------------------------------
# pooled requests: recycled objects must never leak stale state
# ---------------------------------------------------------------------------

def test_request_pool_reuse_resets_state():
    pool = RequestPool(capacity=4)
    req = pool.acquire(0x1000, op=Op.WRITE_NT, issue_ps=77)
    req.accept_ps = 90
    req.complete_ps = 120
    req.annotate("k", 1)
    req.flight = object()
    old_id = req.req_id
    pool.release(req)
    recycled = pool.acquire(0x2000)
    assert recycled is req
    assert recycled.addr == 0x2000
    assert recycled.op is Op.READ
    assert recycled.issue_ps == 0
    assert recycled.accept_ps == 0 and recycled.complete_ps == 0
    assert recycled.meta is None
    assert recycled.flight is None
    assert recycled.req_id != old_id     # fresh id: indistinguishable from new


def test_request_pool_capacity_bound():
    pool = RequestPool(capacity=2)
    reqs = [Request(addr=i) for i in range(5)]
    for req in reqs:
        pool.release(req)
    assert len(pool) == 2


def test_request_is_slotted():
    req = Request(addr=0)
    assert not hasattr(req, "__dict__")
    with pytest.raises(AttributeError):
        req.arbitrary_attribute = 1
