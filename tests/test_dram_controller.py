"""Command-level DDR4 controller behaviour."""

import pytest

from repro.dram.command import CmdType
from repro.dram.controller import DramController
from repro.dram.timing import DDR4_2666


def make(record=False, policy="open"):
    return DramController(DDR4_2666, record_commands=record, row_policy=policy)


def test_cold_read_latency_includes_act_rcd_cl():
    ctrl = make()
    t = DDR4_2666
    done = ctrl.access(0, False, 0)
    expected = t.ps(t.trcd) + t.ps(t.cl) + t.ps(t.burst_cycles)
    assert done == expected


def test_row_hit_is_faster_than_miss():
    ctrl = make()
    first = ctrl.access(0, False, 0)
    second = ctrl.access(64, False, first) - first
    assert second < first


def test_row_hit_rate_sequential():
    ctrl = make()
    now = 0
    for i in range(64):
        now = ctrl.access(i * 64, False, now)
    assert ctrl.row_hit_rate > 0.9


def test_row_conflict_requires_precharge():
    ctrl = make(record=True)
    row_bytes = ctrl.mapping.row_bytes
    nbanks = ctrl.mapping.nbanks
    ctrl.access(0, False, 0)
    # same bank, different row: one full row span * nbanks later
    conflict_addr = row_bytes * nbanks
    ctrl.access(conflict_addr, False, 10)
    kinds = [c.kind for c in ctrl.commands]
    assert kinds.count(CmdType.PRE) == 1
    assert kinds.count(CmdType.ACT) == 2


def test_write_then_read_pays_twtr():
    ctrl = make()
    t = DDR4_2666
    w_done = ctrl.access(0, True, 0)
    r_done = ctrl.access(64, False, w_done)
    # the read burst cannot start before tWTR after write data end
    assert r_done >= w_done + t.ps(t.twtr) + t.ps(t.cl)


def test_refresh_issued_when_due():
    ctrl = make(record=True)
    t = DDR4_2666
    ctrl.access(0, False, 0)
    ctrl.access(64, False, 2 * t.ps(t.trefi))
    kinds = [c.kind for c in ctrl.commands]
    assert CmdType.REF in kinds
    assert ctrl.stats.counter("dram.refreshes").value >= 1


def test_closed_page_policy_precharges():
    ctrl = make(record=True, policy="closed")
    ctrl.access(0, False, 0)
    kinds = [c.kind for c in ctrl.commands]
    assert kinds[-1] == CmdType.PRE


def test_closed_policy_no_row_hits():
    ctrl = make(policy="closed")
    now = 0
    for i in range(16):
        now = ctrl.access(i * 64, False, now)
    assert ctrl.row_hit_rate == 0.0


def test_bad_policy_rejected():
    from repro.common.errors import ConfigError
    with pytest.raises(ConfigError):
        DramController(DDR4_2666, row_policy="weird")


def test_commands_not_recorded_by_default():
    ctrl = make(record=False)
    ctrl.access(0, False, 0)
    assert ctrl.commands == []
