"""Golden digests of every observer's output, per registry system target.

The flight recorder, the fault injector, the telemetry sampler and the
progress reporter observe the stations of every target.  Each case
below drives one seeded stream of reads, writes, ``write_nt`` stores
and fences through a target built under all three tick/record sessions
(flight ``mode="all"``, telemetry, progress with an injected clock),
once without a fault plan and once with a plan that fires every fault
hook the target has, and hashes everything the observers produced:

* every completion time;
* every flight record with its spans, instants and details;
* the telemetry timeline;
* every progress frame;
* the instrument snapshot;
* the fault report, including the persistence audit.

One more case runs ``spec_trace("mcf", ...)`` through ``FullSystem`` on
``vans`` under a sampled recorder and telemetry.

The digests were recorded from the implementation in which each station
held its own flight recorder and fault injector.  Any change to what an
observer sees, or in which order, fails them.  Re-record only for a
deliberate change to an observer, by running :func:`digests` against
that change's parent tree.  ``memory-mode-bare``, ``memory-mode-plan``
and ``cpu-mcf`` were re-recorded when each system's gauges moved into
its stats registry: Memory Mode telemetry names its NVRAM counters
``nvram.<name>``, its snapshot carries the ``faults.*`` gauges, and
``backend_counters`` includes the VANS station gauges.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest

from repro import registry
from repro.common.units import KIB, NS, US
from repro.cpu import FullSystem
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults import session as faults_session
from repro.faults.persistence import PersistenceChecker
from repro.faults.report import fault_report
from repro.flight import FlightRecorder
from repro.flight import session as flight_session
from repro.progress import ProgressReporter
from repro.progress import session as progress_session
from repro.telemetry import TelemetrySampler
from repro.telemetry import session as telemetry_session
from repro.workloads.spec import spec_trace

#: case id -> (registry target, build overrides)
TARGETS = {
    "vans": ("vans", {}),
    "vans-6dimm": ("vans-6dimm", {}),
    # a low threshold makes blocks wear-hot within the stream: the Lazy
    # cache absorbs and writes back, and write-backs migrate blocks
    "vans-lazy": ("vans-lazy", {"migrate_threshold": 24}),
    # a small DRAM cache so dirty lines are written back to the NVRAM
    "memory-mode": ("memory-mode", {"dram_capacity": 16 * KIB}),
    "pmep": ("pmep", {}),
    "quartz": ("quartz", {}),
    "dramsim2-ddr3": ("dramsim2-ddr3", {}),
    "ramulator-ddr4": ("ramulator-ddr4", {}),
    "ramulator-pcm": ("ramulator-pcm", {}),
}

#: stream length; the power cut fires at this request ordinal
N_OPS = 900
CUT_REQUEST = 500

#: one spec per fault kind; the episodes overlap the stream's middle
PLAN = FaultPlan(specs=(
    FaultSpec(kind="media_slow", at_ps=5 * US, duration_ps=400 * US,
              factor=1.5, extra_ps=20 * NS),
    FaultSpec(kind="link_degrade", at_ps=10 * US, duration_ps=300 * US,
              factor=2.0, extra_ps=5 * NS),
    FaultSpec(kind="media_ue", at_ps=0, addr_lo=0, addr_hi=64 * KIB,
              extra_ps=1 * US),
    FaultSpec(kind="power_cut", at_request=CUT_REQUEST),
), seed=17, description="every fault hook")


def _stream(seed: int = 17):
    """Seeded (op, addr) list: a hot 32 KiB write region (combining,
    partial writes, wear), scattered reads over 8 MiB (AIT/RMW misses)
    and re-reads of the hot region, with fences between bursts."""
    rng = random.Random(seed)
    ops = []
    for i in range(N_OPS):
        if i % 50 == 49:
            ops.append(("fence", 0))
            continue
        kind = rng.random()
        if kind < 0.3:
            ops.append(("write", rng.randrange(32 * KIB // 64) * 64))
        elif kind < 0.5:
            ops.append(("write_nt", rng.randrange(32 * KIB // 64) * 64))
        elif kind < 0.8:
            ops.append(("read", rng.randrange(8 * 1024 * KIB // 64) * 64))
        else:
            ops.append(("read", rng.randrange(32 * KIB // 64) * 64))
    return ops


def _records(recorder):
    return [(r.op, r.addr, r.size, r.issue_ps, r.complete_ps, r.req_id,
             [(s.station, s.phase, s.start_ps, s.end_ps,
               sorted((s.detail or {}).items())) for s in r.spans],
             [(i.station, i.name, i.ts_ps, sorted((i.detail or {}).items()))
              for i in r.instants])
            for r in recorder.records]


def _sha(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, default=repr).encode()).hexdigest()


def _run(case: str, with_plan: bool) -> str:
    """Digest of one target under every observer."""
    name, overrides = TARGETS[case]
    recorder = FlightRecorder(mode="all")
    sampler = TelemetrySampler(interval_ps=2 * US)
    frames = []
    reporter = ProgressReporter(emit=frames.append, interval_ps=5 * US,
                                min_wall_s=0.0,
                                clock=itertools.count().__next__)
    injector = (FaultInjector(PLAN, checker=PersistenceChecker())
                if with_plan else None)
    with flight_session(recorder), telemetry_session(sampler), \
            progress_session(reporter), faults_session(injector):
        system = registry.build(name, **overrides)
        ops = {"read": system.read, "write": system.write,
               "write_nt": getattr(system, "write_nt", None) or system.write}
        now = 0
        times = []
        for op, addr in _stream():
            now = system.fence(now) if op == "fence" else ops[op](addr, now)
            times.append(now)
        snapshot = system.instrument_snapshot()
    return _sha({
        "times": times,
        "flight": _records(recorder),
        "sampling": recorder.sampling_summary(),
        "telemetry": sampler.timeline.as_dict(),
        "progress": frames,
        "snapshot": sorted(snapshot.items()),
        "faults": fault_report(injector) if injector is not None else {},
    })


def _cpu_run() -> str:
    """Digest of one ``FullSystem`` run on ``vans`` under a sampled
    recorder and telemetry."""
    recorder = FlightRecorder(mode="every", every=7)
    sampler = TelemetrySampler(interval_ps=20 * US)
    with flight_session(recorder), telemetry_session(sampler):
        system = FullSystem(registry.build("vans"), name="mcf")
        report = system.run(spec_trace("mcf", 4000), warmup_ops=500)
    return _sha({
        "report": [repr(report.cycles), report.instructions,
                   repr(report.ipc), report.elapsed_ps,
                   sorted(report.backend_counters.items())],
        "flight": _records(recorder),
        "sampling": recorder.sampling_summary(),
        "telemetry": sampler.timeline.as_dict(),
    })


CASES = [(case, plan) for case in TARGETS for plan in (False, True)]


def _case_id(case: str, with_plan: bool) -> str:
    return f"{case}-{'plan' if with_plan else 'bare'}"


def digests() -> dict:
    """Every case's digest, keyed as in :data:`GOLDEN` (the recording
    helper: print this from the tree the digests should describe)."""
    out = {_case_id(case, plan): _run(case, plan) for case, plan in CASES}
    out["cpu-mcf"] = _cpu_run()
    return out


#: digests recorded from the reference implementation
GOLDEN = {
    'vans-bare': (
        'd0750252dddf62bb3d44ee620b9b4f4b0d0a07f4331fb9d3bec6f147469375dc'),
    'vans-plan': (
        'c7f5a5b1b096e3b3d9a2a8c598798fd5cd58f090885bb47cad14205b0d617f78'),
    'vans-6dimm-bare': (
        '1d17698f1b7532201e2b25ae5d41c15441fb9fb54722aefb6a8b8dbeafd34f13'),
    'vans-6dimm-plan': (
        '22fbe29cdfded8ce94455e2120409234abe45dce3dcc170cbf9d261488293307'),
    'vans-lazy-bare': (
        '0d5e77a7f3a7c69266076624c6c708fc40bcbace647cab697cccb4e6aae039cf'),
    'vans-lazy-plan': (
        'a8ac69d7974e7a66da4a76fd2461d664abc17ae7c23ceb8091a9741eaffbf56f'),
    'memory-mode-bare': (
        'a495f3b04c6a1164ccf653fbc702d442d173f3a1e12970e7dc5f3c1a9bf369fb'),
    'memory-mode-plan': (
        '13d40302eb82443497cbfdbcc63825116ceb564c8b4d05bb74eab4b01220fa18'),
    'pmep-bare': (
        '12233fcdc31b3e49fa766a213f17b31af6d2460492fd40ad94d32d5cfaf89bac'),
    'pmep-plan': (
        'ef46d59cfa6f845fcd813325f6386a4b85a9dba7424a9cb90a30ca28cec627dd'),
    'quartz-bare': (
        '90d3604389c39d978885f8c251138d1b9f82b693520f77da26b4e89f98b4853e'),
    'quartz-plan': (
        '5c107652458cea21079eb2e3c196042bb067db7caaf51bbbf48cf0ddaed60ed0'),
    'dramsim2-ddr3-bare': (
        '01a54c11af9e0f6d20ce034564a0bce0dae1f6197acaa603a16851cd98237b82'),
    'dramsim2-ddr3-plan': (
        '3d7b03740cd3da11bc7efaef66e3097efcceba49bf6baeae120f81d63e3e8ffe'),
    'ramulator-ddr4-bare': (
        '3f0aab02c39bcb02bb4b1e0962ce30f3d6451bd9efbcfc7920c618c93705d086'),
    'ramulator-ddr4-plan': (
        'd0f66e68bd980a2d3c3f3de59a542bb100b6250b96509faf8578d883ad96d4fb'),
    'ramulator-pcm-bare': (
        '9215d7d2f6826cfc24e902d311a343b4a2f4764de25831d480d84c0b080946a3'),
    'ramulator-pcm-plan': (
        '590d99f37cd8c291f88998b441b0ca0505fcd40972ee89e23b18d5ea6621a1e0'),
    'cpu-mcf': (
        '9ff8ba9ab697e7ea1a3c0aa31621f9d64ab7173766b7b6826d8f7eae9ba60907'),
}


@pytest.mark.parametrize("case,with_plan", CASES,
                         ids=[_case_id(c, p) for c, p in CASES])
def test_observer_output_matches_golden_digest(case, with_plan):
    assert _run(case, with_plan) == GOLDEN[_case_id(case, with_plan)]


def test_cpu_run_matches_golden_digest():
    assert _cpu_run() == GOLDEN["cpu-mcf"]


if __name__ == "__main__":
    for key, value in digests().items():
        print(f"    {key!r}: (\n        {value!r}),")
