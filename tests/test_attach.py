"""Event-driven attach interface."""

import pytest

from repro import registry
from repro.common.errors import SimulationError
from repro.engine.event import Engine
from repro.engine.request import Op, Request
from repro.progress import ProgressReporter
from repro.progress import session as progress_session
from repro.telemetry import TelemetrySampler
from repro.telemetry import session as telemetry_session
from repro.vans import VansSystem
from repro.vans.attach import AttachedMemory


@pytest.fixture
def port():
    return AttachedMemory(Engine(), VansSystem(), max_outstanding=4)


def test_callback_fires_at_completion(port):
    done = []
    req = Request(addr=0x100, op=Op.READ, issue_ps=0)
    assert port.send(req, lambda r: done.append(r))
    assert port.outstanding == 1
    port.engine.run()
    assert done == [req]
    assert port.engine.now == req.complete_ps
    assert port.outstanding == 0


def test_writes_complete_at_accept(port):
    req = Request(addr=0x100, op=Op.WRITE_NT, issue_ps=0)
    port.send(req)
    port.engine.run()
    assert req.accept_ps == req.complete_ps


def test_backpressure(port):
    for i in range(4):
        assert port.send(Request(addr=i * 4096, op=Op.READ, issue_ps=0))
    assert not port.can_accept()
    assert not port.send(Request(addr=0, op=Op.READ, issue_ps=0))
    assert port.stats.snapshot()["attach.rejected"] == 1
    port.engine.run()
    assert port.can_accept()


def test_ordering_of_completions(port):
    order = []
    # a hit (fast) issued after a miss (slow) still completes in time order
    miss = Request(addr=0x100, op=Op.READ, issue_ps=0)
    port.send(miss, lambda r: order.append("miss"))
    port.engine.run()
    hit = Request(addr=0x100, op=Op.READ, issue_ps=port.engine.now)
    port.send(hit, lambda r: order.append("hit"))
    port.engine.run()
    assert order == ["miss", "hit"]


def test_fence_helper(port):
    port.send(Request(addr=0, op=Op.WRITE_NT, issue_ps=0))
    port.engine.run()
    fired = []
    port.send_fence(on_complete=lambda r: fired.append(r.complete_ps))
    port.engine.run()
    assert fired and fired[0] >= 0


def test_rejects_past_issue(port):
    port.engine.advance(1000)
    with pytest.raises(SimulationError):
        port.send(Request(addr=0, op=Op.READ, issue_ps=10))


def test_latency_stats(port):
    port.send(Request(addr=0, op=Op.READ, issue_ps=0))
    port.engine.run()
    assert port.mean_latency_ps > 0


#: (op, addr) stream for the tick-count comparison below
_TICK_STREAM = ([(Op.READ, i * 4096) for i in range(10)]
                + [(Op.WRITE_NT, i * 64) for i in range(6)]
                + [(Op.FENCE, 0)]
                + [(Op.READ, i * 64) for i in range(4)])


def _ticked_run(name, via_port):
    """Chain ``_TICK_STREAM`` through a registry target, either as
    requests through an :class:`AttachedMemory` port or as direct
    read/write/fence calls; returns what the tick sinks saw."""
    sampler = TelemetrySampler(interval_ps=50_000)
    reporter = ProgressReporter(emit=lambda frame: None, interval_ps=50_000,
                                min_wall_s=0.0, clock=lambda: 0.0)
    with telemetry_session(sampler), progress_session(reporter):
        system = registry.build(name)
        port = AttachedMemory(Engine(), system)
        now = 0
        for op, addr in _TICK_STREAM:
            if via_port:
                assert port.send(Request(addr=addr, op=op, issue_ps=now))
                now = port.engine.run()
            elif op is Op.FENCE:
                now = system.fence(now)
            elif op.is_write:
                now = system.write(addr, now)
            else:
                now = system.read(addr, now)
    return reporter.done_requests, sampler.timeline.as_dict()


@pytest.mark.parametrize("name", registry.target_names(systems_only=True))
def test_port_requests_tick_once_like_direct_calls(name):
    """A request sent through the port ticks the telemetry/progress
    sinks exactly as the same direct call does: once."""
    port_done, port_timeline = _ticked_run(name, via_port=True)
    direct_done, direct_timeline = _ticked_run(name, via_port=False)
    assert port_done == direct_done
    assert port_timeline == direct_timeline
