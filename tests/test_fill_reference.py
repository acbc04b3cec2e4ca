"""The one-lookup AIT fill and the DRAM block access against the
per-unit loops they replaced.

On an AIT miss, ``NvramDimm._ait_read_block`` remaps the 4 KiB entry
with one wear-block lookup, reads the critical unit and takes its port
slot, then hands the other fifteen units to one
``XPointMedia.access_block`` call that serves the media port in
locals.  :func:`_reference_read_block` is the loop it replaced: one
round of ``wear.translate``, ``media.access`` and ``media_port.serve``
per unit.  Twin DIMMs run one random stream, one twin through each
version.  They must agree on every returned time, on every media
partition and the media port after every request, and at the end on
every counter and every flight span.  The stream reaches pages of
migrated wear blocks (generation > 0) and, on a media smaller than one
wear block, entries whose physical units wrap around the media
capacity.

``DramDevice.access_block`` dispatches each line to its channel itself;
it is checked the same way against a loop of ``DramDevice.access``.

``NvramDimm.warm_fill`` appends a region's missing AIT pages and RMW
blocks in one ``OrderedDict.update`` each; :func:`_reference_warm_fill`
is the loop it replaced, one ``_ait_insert`` per page and one
``_rmw_insert`` per block.  Twin DIMMs must end with the same tags in
the same LRU order, the same AIT slots and free list, and no eviction.
"""

from __future__ import annotations

import random

import pytest

from repro.common.units import KIB, MIB, NS
from repro.dram.device import DramDevice
from repro.dram.timing import DDR4_2666
from repro.engine.request import CACHE_LINE
from repro.flight import FlightRecorder
from repro.hooks import Hooks
from repro.media.wear import WearConfig
from repro.media.xpoint import XPointConfig
from repro.vans.config import AitConfig, DimmConfig, RmwConfig
from repro.vans.dimm import MEDIA_PORT_READ_PS, NvramDimm

N_OPS = 3000


def _reference_read_block(dimm: NvramDimm, addr: int, now: int) -> int:
    """``_ait_read_block`` as one round per 256B unit: every unit is
    remapped, read and sent through the port on its own."""
    cfg = dimm.config
    stats = dimm.stats
    page = addr - addr % cfg.ait.entry_bytes
    block = addr - addr % cfg.rmw.entry_bytes
    done_table = dimm._ait_lookup(addr, now)
    h = dimm.hooks
    slot = dimm._ait_tags.get(page)
    if slot is not None:
        dimm._ait_tags.move_to_end(page)
        stats.counter("dimm.ait_hits").add()
        base = dimm._table_bytes + slot * cfg.ait.entry_bytes + block - page
        done = done_table
        for offset in range(0, cfg.rmw.entry_bytes, CACHE_LINE):
            done = max(done, dimm.dram.access(base + offset, False,
                                              done_table))
        if h.on:
            h.flight.span("dimm.ait", done_table, done, phase="buffer_hit")
        return done
    stats.counter("dimm.ait_misses").add()
    stats.counter("dimm.ait_fill_bytes").add(cfg.ait.entry_bytes)
    start = dimm.wear.on_read(page, done_table)
    array_done = dimm.media.access(dimm.wear.translate(block), False, start)
    first = dimm.media_port.serve(array_done, MEDIA_PORT_READ_PS)
    if h.on:
        h.flight.span("dimm.media_port", array_done, first, phase="read")
    unit = page
    while unit < page + cfg.ait.entry_bytes:
        if unit != block:
            done = dimm.media.access(dimm.wear.translate(unit), False, start)
            dimm.media_port.serve(done, MEDIA_PORT_READ_PS)
        unit += cfg.media.granularity
    dimm._ait_insert(page, now)
    return first


def _servers(dimm: NvramDimm):
    return [(s.busy_until, s.total_busy, s.served)
            for s in [dimm.media_port, *dimm.media.banks.banks]]


def _twin(media_bytes: int, flight: bool):
    config = DimmConfig(
        ait=AitConfig(entries=8),
        media=XPointConfig(capacity_bytes=media_bytes),
        wear=WearConfig(migrate_threshold=4),
    )
    hooks = Hooks()
    if flight:
        hooks.set(flight=FlightRecorder())
    return NvramDimm(config, hooks=hooks)


#: (media capacity, logical span of the stream): 1 MiB is sixteen wear
#: blocks that migrate and rotate; 5 KiB is less than one wear block, so
#: a physical entry wraps around the media capacity mid-fill
GEOMETRIES = {"rotating": (1 * MIB, 4 * MIB), "wrapping": (5 * KIB, 512 * KIB)}


@pytest.mark.parametrize("flight", [False, True], ids=["bare", "flight"])
@pytest.mark.parametrize("geometry", list(GEOMETRIES))
def test_fill_matches_the_per_unit_loop(geometry, flight):
    media_bytes, span = GEOMETRIES[geometry]
    fast, ref = _twin(media_bytes, flight), _twin(media_bytes, flight)
    rng = random.Random(f"fill-{geometry}")
    entry = ref.config.ait.entry_bytes
    block_bytes = ref.config.wear.block_bytes
    migrated_misses = wrapped_misses = 0
    now = 0
    for _ in range(N_OPS):
        now += rng.randrange(400) * NS // 4
        if rng.random() < 0.3:
            # nt-store drains push wear blocks over the threshold
            addr = rng.randrange(span // 256) * 256
            for dimm in (fast, ref):
                dimm.hooks.flight.begin("write", addr, issue_ps=now)
                done = dimm._ait_write_block(addr, 256, now)
                dimm.hooks.flight.end(done[1])
            continue
        addr = rng.randrange(span // 64) * 64
        page = addr - addr % entry
        if page not in ref._ait_tags:
            physical = ref.wear.translate(page)
            migrated_misses += ref.wear._remap.get(page // block_bytes, 0) > 0
            wrapped_misses += physical % media_bytes + entry > media_bytes
        results = []
        for dimm, read_block in ((fast, fast._ait_read_block),
                                 (ref, lambda a, t: _reference_read_block(
                                     ref, a, t))):
            dimm.hooks.flight.begin("read", addr, issue_ps=now)
            results.append(read_block(addr, now))
            dimm.hooks.flight.end(results[-1])
        assert results[0] == results[1]
        assert _servers(fast) == _servers(ref)

    if geometry == "rotating":
        assert migrated_misses > 0
    else:
        assert wrapped_misses > 0
    assert fast.stats.snapshot() == ref.stats.snapshot()
    assert fast.dram.stats.snapshot() == ref.dram.stats.snapshot()
    assert fast.media.reads == ref.media.reads > 0
    if flight:
        records = fast.hooks.flight.records
        assert records == ref.hooks.flight.records
        assert any(s.station == "media" for r in records for s in r.spans)


def test_block_access_without_a_port_returns_the_last_unit():
    media = _twin(1 * MIB, False).media
    # unit 0 busy first: the 4 KiB access ends with it, a read later
    media.access(0, False, 0)
    done = media.access_block(0, 4 * KIB, False, 0)
    assert done == 2 * media.config.read_ps
    assert media.reads == 17


@pytest.mark.parametrize("nchannels, row_policy",
                         [(1, "open"), (4, "open"), (2, "closed")])
def test_dram_block_access_matches_the_line_loop(nchannels, row_policy):
    fast, ref = (DramDevice(DDR4_2666, nchannels=nchannels,
                            capacity_bytes=1 * MIB, row_policy=row_policy,
                            record_commands=True) for _ in range(2))
    rng = random.Random(f"dram-{nchannels}-{row_policy}")
    now = 0
    for _ in range(N_OPS):
        now += rng.randrange(200) * NS
        addr = rng.randrange(2 * MIB)  # past the capacity: wraps
        nbytes = rng.choice([0, 1, 64, 100, 256, 4 * KIB])
        is_write = rng.random() < 0.3
        want = now
        for offset in range(0, max(nbytes, CACHE_LINE), CACHE_LINE):
            want = max(want, ref.access(addr + offset, is_write, now))
        assert fast.access_block(addr, nbytes, is_write, now) == want
    assert fast.all_commands() == ref.all_commands()
    assert fast.stats.snapshot() == ref.stats.snapshot()


def _reference_warm_fill(dimm: NvramDimm, start_addr: int,
                         length: int) -> None:
    """``warm_fill`` as one ``_ait_insert`` per page and one
    ``_rmw_insert`` per block."""
    cfg = dimm.config
    page = start_addr - start_addr % cfg.ait.entry_bytes
    end = start_addr + length
    while page < end and len(dimm._ait_tags) < cfg.ait.entries:
        if page not in dimm._ait_tags:
            dimm._ait_insert(page, 0)
        page += cfg.ait.entry_bytes
    block = start_addr - start_addr % cfg.rmw.entry_bytes
    while block < end and len(dimm._rmw_tags) < cfg.rmw.entries:
        dimm._rmw_insert(block)
        block += cfg.rmw.entry_bytes


def _buffer_state(dimm: NvramDimm):
    return (list(dimm._ait_tags.items()), list(dimm._ait_free),
            list(dimm._rmw_tags.items()))


#: 8 AIT pages (32 KiB) and 96 RMW blocks (24 KiB)
WARM_CONFIG = DimmConfig(ait=AitConfig(entries=8), rmw=RmwConfig(entries=96))

#: name -> (reads made before the fill, fills as (start, length)): a
#: fresh DIMM; one whose buffers hold some of the region, in an LRU
#: order unlike address order, with a fill that starts mid-page; one
#: whose fill overruns both buffers and then finds them full
WARM_FILLS = {
    "fresh": ([], [(0, 20 * KIB)]),
    "partly filled": ([9 * KIB, 2 * KIB, 5 * KIB + 256, 12 * KIB],
                      [(1 * KIB + 100, 22 * KIB)]),
    "overrun": ([30 * KIB], [(0, 64 * KIB), (64 * KIB, 16 * KIB)]),
}


@pytest.mark.parametrize("case", list(WARM_FILLS))
def test_warm_fill_matches_the_per_entry_loop(case):
    reads, fills = WARM_FILLS[case]
    fast, ref = NvramDimm(WARM_CONFIG), NvramDimm(WARM_CONFIG)
    for dimm in (fast, ref):
        for addr in reads:
            dimm.read_line(addr, 0)
    assert _buffer_state(fast) == _buffer_state(ref)
    for start, length in fills:
        fast.warm_fill(start, length)
        _reference_warm_fill(ref, start, length)
        assert _buffer_state(fast) == _buffer_state(ref)
    ait, free, rmw = _buffer_state(fast)
    full = case == "overrun"
    assert (free == []) is full
    assert (len(rmw) == WARM_CONFIG.rmw.entries) is full
    assert len(ait) + len(free) == WARM_CONFIG.ait.entries
    assert fast.stats.snapshot() == ref.stats.snapshot()
    assert "dimm.ait_evictions" not in fast.stats.snapshot()
    assert "dimm.rmw_evictions" not in fast.stats.snapshot()
