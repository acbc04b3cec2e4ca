"""Golden digests of the command-level DRAM model.

A seeded 20k-access stream runs through ``DramDevice(record_commands=True)``
for every {timing grade} x {row policy} x {channel count}.  The sha256 of
every completion time, every recorded command and the final counter
snapshot must equal the digest recorded from the reference
implementation, so a rewrite of the controller's hot path cannot move a
single picosecond or command.  Each channel's command stream is also
replayed through the independent :class:`DDR4ProtocolChecker`.

The stream mixes the situations the controller's timing state has to
get right: sequential runs (row hits), same-bank row conflicts (PRE/ACT),
bursts issued at one instant across many banks (tRRD/tFAW pressure),
addresses past capacity (wrap), and idle gaps that cross tREFI.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro.common.rng import make_rng
from repro.common.units import MIB
from repro.dram.address import AddressMapping
from repro.dram.device import DramDevice
from repro.dram.timing import DDR3_1600, DDR4_2666, PCM_TIMING
from repro.dram.verifier import DDR4ProtocolChecker

N_ACCESSES = 20_000
CAPACITY = 64 * MIB
TIMINGS = {t.name: t for t in (DDR4_2666, DDR3_1600, PCM_TIMING)}
CASES = list(itertools.product(TIMINGS, ("open", "closed"), (1, 4)))

#: digests recorded from the reference implementation (closed-page:
#: from the refresh that waits for the pending closing PRE)
GOLDEN = {
    "DDR4-2666-open-1ch":
        "25caca03d4f34f297e16087ae1d750bc31cd04f138a004532d0ab49381d786fa",
    "DDR4-2666-open-4ch":
        "6e95dd3f92723a5660a641fe5e1156eda01f0100e6025bd3fffad73831753208",
    "DDR4-2666-closed-1ch":
        "4ead06137fab87a34cbfe6a2a38cbd9cd9ac311b2a78bba07bc05fc2aad18616",
    "DDR4-2666-closed-4ch":
        "e42842b80737fe8694625850b337853ff6486d8170cb4ea6d3d25c4fc89bef6b",
    "DDR3-1600-open-1ch":
        "5492e9e92f50cef4258c55233fb7f297863e4938d643d7dee834328f5e8d5e4d",
    "DDR3-1600-open-4ch":
        "c38dabef0adaaeaf9e5cada12d4be4d66ec24b035c137d3d13c7c22e49cfccb9",
    "DDR3-1600-closed-1ch":
        "637fbc446c53602b723f985841fc5d56fb08049ffe7fa9508aeb8b7f8bac8719",
    "DDR3-1600-closed-4ch":
        "e237167e7ed406cfdc520be975d52854f97227dda696b0c70dacf745888b513c",
    "PCM-2666-open-1ch":
        "3f418cfb41cb92bdba954e1ecac0735fee8b9cb37f62641a4358c6a83f10e3db",
    "PCM-2666-open-4ch":
        "8c58b996f3b37bf4b920eca23f568c9273098fb0cabbb11f417fcc5ec09b7fba",
    "PCM-2666-closed-1ch":
        "dfee4bfd9c0fadb5115119e4bceec8a081792c0f09b9df8cafe26685d26eef43",
    "PCM-2666-closed-4ch":
        "008618ea2d71bf0cf9ebee5b792edd433c58c303c7e5d3133772b9af70cd5620",
}


def _run(timing_name: str, policy: str, nchannels: int):
    """Drive the seeded stream (at least ``N_ACCESSES`` accesses);
    returns the device and every access's completion time."""
    timing = TIMINGS[timing_name]
    mapping = AddressMapping()
    dev = DramDevice(timing, nchannels=nchannels, capacity_bytes=CAPACITY,
                     mapping=mapping, row_policy=policy, record_commands=True)
    rng = make_rng(16, "dram-golden")
    bank_span = mapping.row_bytes * nchannels       # next bank, same row
    row_span = bank_span * mapping.nbanks           # same bank, next row
    nrows = CAPACITY // row_span
    trefi_ps = timing.ps(timing.trefi)
    completions = []
    done = 0

    def access(addr: int, now: int) -> int:
        nonlocal done
        end = dev.access(addr, rng.random() < 0.35, now)
        completions.append(end)
        done = max(done, end)
        return end

    while len(completions) < N_ACCESSES:
        kind = rng.random()
        if kind < 0.30:                    # sequential run, chained
            addr = rng.randrange(CAPACITY // 64) * 64
            now = done
            for _ in range(rng.randint(4, 64)):
                now = access(addr, now)
                addr += 64
        elif kind < 0.50:                  # same-bank row conflicts
            base = rng.randrange(row_span // 64) * 64
            now = done
            for _ in range(rng.randint(2, 12)):
                now = access(base + rng.randrange(nrows) * row_span, now)
        elif kind < 0.65:                  # one-instant burst over banks
            now = done
            for slot in rng.sample(range(mapping.nbanks * nchannels),
                                   rng.randint(5, 16)):
                bank, channel = divmod(slot, nchannels)
                access(rng.randrange(nrows) * row_span + bank * bank_span
                       + rng.randrange(mapping.cols_per_row) * 64 * nchannels
                       + channel * 64, now)
        elif kind < 0.75:                  # past capacity: wraps
            now = done
            for _ in range(rng.randint(1, 4)):
                now = access(CAPACITY * rng.randint(1, 3)
                             + rng.randrange(CAPACITY // 64) * 64, now)
        elif kind < 0.80:                  # idle gap across tREFI
            access(rng.randrange(CAPACITY // 64) * 64,
                   done + rng.randint(1, 3) * trefi_ps + rng.randrange(trefi_ps))
        else:                              # random, unaligned, overlapped
            access(rng.randrange(CAPACITY),
                   done - rng.randrange(200_000) if done > 200_000 else done)
    return dev, completions


def _digest(dev: DramDevice, completions) -> str:
    h = hashlib.sha256()
    h.update(repr(completions).encode())
    for channel in dev.channels:
        h.update(repr([(c.time_ps, c.kind.name, c.bank, c.row, c.col)
                       for c in channel.commands]).encode())
    h.update(repr(sorted(dev.stats.snapshot().items())).encode())
    return h.hexdigest()


def _case_id(case) -> str:
    timing, policy, nchannels = case
    return f"{timing}-{policy}-{nchannels}ch"


@pytest.fixture(scope="module", params=CASES, ids=_case_id)
def run(request):
    return (request.param, *_run(*request.param))


def test_stream_matches_golden_digest(run):
    case, dev, completions = run
    assert _digest(dev, completions) == GOLDEN[_case_id(case)]


def test_stream_covers_refreshes_and_conflicts(run):
    _case, dev, completions = run
    snap = dev.stats.snapshot()
    assert snap["dram.refreshes"] > 0
    assert snap["dram.row_misses"] > 0
    assert snap["dram.reads"] + snap["dram.writes"] == len(completions)
    assert len(completions) >= N_ACCESSES


def test_every_channel_replays_legally(run):
    (timing, _policy, _n), dev, _completions = run
    for channel in dev.channels:
        checked = DDR4ProtocolChecker(TIMINGS[timing]).check(channel.commands)
        assert checked == len(channel.commands)
