"""Golden digests of the VANS station path: iMC, DIMM, AIT, media, wear.

One seeded 20k-op stream of reads, nt-stores and fences runs on
``vans``, ``vans-6dimm`` and ``vans-lazy`` (each with a lowered wear
``migrate_threshold``) and on ``memory-mode`` (with a small DRAM cache).
Requests issue open loop, a few nanoseconds apart, so the RPQ, WPQ and
LSQ hold many requests at once; a fence waits for its drain.

The stream is built to leave the buffers' reach:

* scattered reads cover a 192 MiB span, more than the 16 MiB AIT reach
  of every DIMM of ``vans-6dimm`` together;
* column reads walk the same span at a 24 KiB pitch (six 4 KiB
  interleave units), so on ``vans-6dimm`` they all land on one DIMM and
  overflow its AIT buffer too;
* nt-stores concentrate on four 64 KiB wear blocks, so blocks migrate
  and the Lazy cache absorbs; on ``memory-mode`` they conflict in the
  DRAM cache and are written back to the NVRAM.

The sha256 covers every completion time and the instrument snapshot
(wear, AIT, RMW, LSQ, Lazy-cache and latency-histogram counters plus
every station's gauges).  The digests were recorded from the
implementation that still carried the DDR-T credit channel and the AIT
record cache as build options; any change to a simulated picosecond or
a counter fails them.  Re-record only for a deliberate model change, by
running this file against that change's parent tree.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import registry
from repro.common.rng import make_rng
from repro.common.units import KIB, MIB, NS

N_OPS = 20_000
#: scattered and column reads range over this span
READ_SPAN = 192 * MIB
#: column-read pitch: six 4 KiB interleave units
COLUMN_PITCH = 24 * KIB
#: nt-stores land in these 64 KiB wear blocks
HOT_BASE = 256 * MIB
HOT_BYTES = 4 * 64 * KIB

#: case id -> (registry target, build overrides)
TARGETS = {
    "vans": ("vans", {"migrate_threshold": 300}),
    "vans-6dimm": ("vans-6dimm", {"migrate_threshold": 300}),
    "vans-lazy": ("vans-lazy", {"migrate_threshold": 300}),
    "memory-mode": ("memory-mode", {"dram_capacity": 64 * KIB}),
}

#: digests recorded from the reference implementation
GOLDEN = {
    "vans":
        "d74371c1fae0deedbc9ca38c7bc688474687efa92260abad6c7400e7a3a18203",
    "vans-6dimm":
        "3f5666eb9b9f32424d02e43c921eee6572d34019d8d683a7df60a723d61cf7de",
    "vans-lazy":
        "a30fb2de4ec25ad20bd16952a8e2ac7c6b14f79a333d45d1cce201edbdb2dd18",
    "memory-mode":
        "6dfc5430f2dd751a5c17330bac20229c4f79692784e93f81bc3b291c43df3012",
}


def _stream():
    """Seeded ``(op, addr, gap_ps)`` list; ``gap_ps`` separates an
    op's issue from the previous op's."""
    rng = make_rng(23, "vans-golden")
    ops = []
    for i in range(N_OPS):
        gap = rng.randrange(40) * NS // 4
        if i % 128 == 127:
            ops.append(("fence", 0, gap))
            continue
        kind = rng.random()
        if kind < 0.35:
            ops.append(("write",
                        HOT_BASE + rng.randrange(HOT_BYTES // 64) * 64, gap))
        elif kind < 0.65:
            ops.append(("read", rng.randrange(READ_SPAN // 64) * 64, gap))
        else:
            row = rng.randrange(READ_SPAN // COLUMN_PITCH)
            ops.append(("read", row * COLUMN_PITCH
                        + rng.randrange(4 * KIB // 64) * 64, gap))
    return ops


def _run(case: str):
    """Drive the stream; returns ``(completion times, snapshot)``."""
    name, overrides = TARGETS[case]
    system = registry.build(name, **overrides)
    ops = {"read": system.read, "write": system.write}
    now = 0
    times = []
    for op, addr, gap in _stream():
        now += gap
        if op == "fence":
            now = system.fence(now)
            times.append(now)
        else:
            times.append(ops[op](addr, now))
    return times, system.instrument_snapshot()


def _digest(times, snapshot) -> str:
    return hashlib.sha256(json.dumps(
        {"times": times, "snapshot": sorted(snapshot.items())},
        sort_keys=True, default=repr).encode()).hexdigest()


@pytest.fixture(scope="module")
def runs():
    return {case: _run(case) for case in TARGETS}


@pytest.mark.parametrize("case", list(TARGETS))
def test_station_path_matches_golden_digest(runs, case):
    assert _digest(*runs[case]) == GOLDEN[case]


@pytest.mark.parametrize("case", ["vans", "vans-6dimm"])
def test_stream_evicts_ait_entries_and_migrates_blocks(runs, case):
    snapshot = runs[case][1]
    assert snapshot["dimm.ait_evictions"] >= 1
    assert snapshot["wear.migrations"] >= 1


def test_stream_exercises_the_lazy_cache(runs):
    assert runs["vans-lazy"][1]["lazy.absorbed_writes"] >= 1


def test_stream_writes_memory_mode_lines_back(runs):
    assert runs["memory-mode"][1]["memmode.writebacks"] >= 1


if __name__ == "__main__":
    for key in TARGETS:
        print(f"    {key!r}:\n        {_digest(*_run(key))!r},")
