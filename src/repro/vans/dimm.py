"""The NVRAM DIMM model: LSQ -> RMW buffer -> AIT -> media.

All internal scheduling is first-come-first-serve (the policy LENS
observes), so each request's completion time is computed forward through
the FCFS queueing algebra.  The observable behaviours this module is
responsible for (and that the paper's figures hinge on):

* reads hit three latency tiers — RMW-buffer hit (16KB reach), AIT-buffer
  hit (16MB reach), media — giving the two inflection points of Fig. 5a;
* 64B reads pull 256B from the AIT (RMW entry fill) and AIT misses pull
  4KB from media (read amplification, Fig. 6a / Fig. 9c);
* the LSQ write-combines adjacent 64B stores into 256B downstream ops;
  uncombinable sub-256B stores trigger a read-modify-write (Fig. 6b);
* the LSQ's 64-entry capacity bounds the write burst the DIMM can absorb
  (the 4KB store inflection of Fig. 5a);
* every drained store is written through to wear-leveled media, so
  concentrated overwrites trigger 64KB block migrations with >100x tail
  latencies (Fig. 7b-c, Fig. 9d);
* a fence flushes the pending write-combine block and completes when the
  LSQ has fully drained (the paper's mfence observation in Fig. 5c).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Set, Tuple

from repro.common.units import align_down
from repro.dram.device import DramDevice
from repro.engine.queueing import FcfsStation, Server
from repro.engine.request import CACHE_LINE
from repro.engine.stats import StatsRegistry
from repro.media.wear import WearLeveler
from repro.media.xpoint import XPointMedia
from repro.vans.config import DimmConfig

#: media channel occupancy per 256B transfer.  The internal read path is
#: wide (AIT fills move 4KB per miss, so it must sustain well above the
#: external bus rate); the write path is the documented 3D-XPoint
#: bottleneck (~2.3GB/s sustained per DIMM).
MEDIA_PORT_READ_PS = 15_000    # 15ns / 256B  (~17GB/s internal fill)
MEDIA_PORT_WRITE_PS = 110_000  # 110ns / 256B (~2.3GB/s media writes)
#: read<->write turnaround on the internal bus (the "bus redirection"
#: penalty of Section III-C)
TURNAROUND_PS = 15_000


class NvramDimm:
    """One Optane-like DIMM as an FCFS timing pipeline."""

    def __init__(self, config: DimmConfig, stats: Optional[StatsRegistry] = None,
                 track_line_wear: bool = False, instrument=None,
                 flight=None, faults=None) -> None:
        from repro.faults.injector import NULL_FAULTS
        from repro.flight.recorder import NULL_FLIGHT
        from repro.instrument import NULL_BUS
        self.config = config
        self.stats = stats or StatsRegistry()
        self.instrument = instrument if instrument is not None else NULL_BUS
        self.flight = flight if flight is not None else NULL_FLIGHT
        self.faults = faults if faults is not None else NULL_FAULTS
        t = config.timing
        self.t = t

        self.lsq = FcfsStation(config.lsq.entries)
        self.engine = Server()           # DIMM controller op processing
        self.media_port = Server()       # shared media channel
        self.bus = Server()              # DIMM -> iMC return path
        self.dram = DramDevice(
            config.dram_timing,
            nchannels=1,
            capacity_bytes=config.dram_capacity_bytes,
        )
        self.media = XPointMedia(config.media, stats=self.stats,
                                 flight=self.flight, faults=self.faults)
        self.wear = WearLeveler(
            config.wear,
            capacity_bytes=config.media.capacity_bytes,
            stats=self.stats,
            track_line_wear=track_line_wear,
            flight=self.flight,
            faults=self.faults,
        )
        self.lazy = None
        if config.lazy_cache:
            from repro.optim.lazycache import LazyCache
            self.lazy = LazyCache(stats=self.stats, flight=self.flight)

        # Optional SRAM cache of hot AIT translation records (a
        # design-space knob; disabled in the validated configuration).
        self._table_cache: "OrderedDict[int, bool]" = OrderedDict()

        # RMW buffer: 256B-block tag store, LRU.  Write-through keeps
        # entries clean, so evictions are silent.
        self._rmw_tags: "OrderedDict[int, bool]" = OrderedDict()
        # AIT buffer: 4KB-page tag -> DRAM slot, LRU.
        self._ait_tags: "OrderedDict[int, int]" = OrderedDict()
        self._ait_free = list(range(config.ait.entries - 1, -1, -1))
        self._table_bytes = (
            config.media.capacity_bytes // config.ait.entry_bytes
        ) * config.ait.table_record_bytes

        # Write-combining state: the 256B block currently accumulating.
        self._wc_block: Optional[int] = None
        self._wc_lines: Set[int] = set()
        self._wc_last_ps = 0
        self._wc_drain_ps = 0  # completion of the most recent combined op

        self._last_dir_write: Optional[bool] = None  # bus turnaround state

        s = self.stats
        self._c_reads = s.counter("dimm.reads")
        self._c_writes = s.counter("dimm.write_lines")
        self._c_rmw_hits = s.counter("dimm.rmw_hits")
        self._c_rmw_misses = s.counter("dimm.rmw_misses")
        self._c_ait_hits = s.counter("dimm.ait_hits")
        self._c_ait_misses = s.counter("dimm.ait_misses")
        self._c_combined_ops = s.counter("dimm.combined_write_ops")
        self._c_partial_ops = s.counter("dimm.partial_write_ops")
        self._c_req_read_bytes = s.counter("dimm.requested_read_bytes")
        self._c_rmw_fill_bytes = s.counter("dimm.rmw_fill_bytes")
        self._c_ait_fill_bytes = s.counter("dimm.ait_fill_bytes")
        self._c_write_bytes = s.counter("dimm.requested_write_bytes")
        self._c_drained_bytes = s.counter("dimm.drained_write_bytes")

        # Pull-gauges on the instrumentation bus: station occupancy and
        # blocked/busy time of every FCFS resource in the pipeline.
        # No-ops on the default NULL_BUS.
        bus = self.instrument
        self.lsq.publish(bus, "lsq")
        self.engine.publish(bus, "engine")
        self.media_port.publish(bus, "media_port")
        self.bus.publish(bus, "return_bus")
        self.wear.publish(bus, "wear")
        self.media.publish(bus, "media")
        if self.lazy is not None:
            self.lazy.publish(bus, "lazy")

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------

    def _block_of(self, addr: int) -> int:
        return align_down(addr, self.config.rmw.entry_bytes)

    def _page_of(self, addr: int) -> int:
        return align_down(addr, self.config.ait.entry_bytes)

    def _table_addr(self, addr: int) -> int:
        page_index = addr // self.config.ait.entry_bytes
        return (page_index * self.config.ait.table_record_bytes) % max(
            self._table_bytes, CACHE_LINE
        )

    def _slot_addr(self, slot: int, offset: int = 0) -> int:
        return self._table_bytes + slot * self.config.ait.entry_bytes + offset

    def _turnaround(self, is_write: bool, when: int) -> int:
        """Apply the read<->write bus redirection penalty."""
        penalty = 0
        if self._last_dir_write is not None and self._last_dir_write != is_write:
            penalty = TURNAROUND_PS
        self._last_dir_write = is_write
        return when + penalty

    # ------------------------------------------------------------------
    # AIT paths
    # ------------------------------------------------------------------

    def _ait_lookup(self, addr: int, now: int) -> int:
        """Translation-table read; returns completion.

        With the (optional) translation cache enabled, hot records are
        served from controller SRAM instead of the on-DIMM DRAM.
        """
        cache_entries = self.config.ait.table_cache_entries
        if cache_entries:
            page = self._page_of(addr)
            if page in self._table_cache:
                self._table_cache.move_to_end(page)
                self.stats.counter("dimm.table_cache_hits").add()
                done = now + self.config.ait.table_cache_hit_ps
                if self.flight.active:
                    self.flight.span("dimm.ait", now, done, phase="table",
                                     source="sram")
                return done
            self.stats.counter("dimm.table_cache_misses").add()
            self._table_cache[page] = True
            if len(self._table_cache) > cache_entries:
                self._table_cache.popitem(last=False)
        done = self.dram.access(self._table_addr(addr), False, now)
        if self.flight.active:
            self.flight.span("dimm.ait", now, done, phase="table",
                             source="dram")
        return done

    def _ait_insert(self, page: int, now: int) -> int:
        """Allocate a buffer slot for ``page`` (LRU evict); returns slot."""
        if self._ait_free:
            slot = self._ait_free.pop()
        else:
            _, slot = self._ait_tags.popitem(last=False)
            self.stats.counter("dimm.ait_evictions").add()
        self._ait_tags[page] = slot
        return slot

    def _ait_read_block(self, addr: int, now: int) -> int:
        """Fetch the 256B block of ``addr`` from the AIT level.

        Returns the time the block is available to fill the RMW buffer.
        AIT-buffer hits read from on-DIMM DRAM; misses fetch the whole
        4KB entry from media (critical-block-first, so the caller gets
        its 256B as soon as that unit lands; the rest of the fill keeps
        the media port busy in the background).
        """
        cfg = self.config
        page = self._page_of(addr)
        block = self._block_of(addr)
        done_table = self._ait_lookup(addr, now)

        fl = self.flight
        slot = self._ait_tags.get(page)
        if slot is not None:
            self._ait_tags.move_to_end(page)
            self._c_ait_hits.add()
            offset = block - page
            done = self.dram.access_block(
                self._slot_addr(slot, offset), cfg.rmw.entry_bytes, False, done_table
            )
            if fl.active:
                fl.span("dimm.ait", done_table, done, phase="buffer_hit")
            return done

        # AIT miss: 4KB media fill.
        self._c_ait_misses.add()
        self._c_ait_fill_bytes.add(cfg.ait.entry_bytes)
        start = self.wear.on_read(page, done_table)
        gran = cfg.media.granularity
        # Critical 256B first.
        array_done = self.media.access(self.wear.translate(block), False, start)
        first = self.media_port.serve(array_done, MEDIA_PORT_READ_PS)
        if fl.active:
            fl.span("dimm.media_port", array_done, first, phase="read")
        # Background: the remaining units of the 4KB entry.
        fill_done = first
        unit = page
        while unit < page + cfg.ait.entry_bytes:
            if unit != block:
                done = self.media.access(self.wear.translate(unit), False, start)
                fill_done = max(fill_done, self.media_port.serve(done, MEDIA_PORT_READ_PS))
            unit += gran
        self._ait_insert(page, now)
        # The DRAM fill of the slot happens in the background over the
        # on-DIMM DRAM's spare bandwidth; demand table lookups are
        # prioritized over fill traffic, so the fill is not charged to
        # the shared DRAM channel (its media-side cost is charged above).
        return first

    def _ait_write_block(self, addr: int, nbytes: int, now: int):
        """Write ``nbytes`` (<=256) at ``addr`` through the AIT to media.

        Writes allocate into the AIT buffer at sector granularity (the
        256B unit is written into the page's entry without fetching the
        other sectors from media), keeping the hierarchy inclusive: data
        just written is readable from the AIT buffer.  Because no 4KB
        media fetch happens on the write path, LENS sees no 4KB signature
        in the *write* amplification test (Fig. 6b).

        Returns ``(handoff, durable)``: the time the 256B unit has been
        transferred over the media port (the issuing engine is free), and
        the time the array program finishes (the LSQ entry retires).
        """
        cfg = self.config
        page = self._page_of(addr)
        block = self._block_of(addr)
        done_table = self._ait_lookup(addr, now)

        ready, _migrated = self.wear.on_write(block, done_table)
        handoff = self.media_port.serve(ready, MEDIA_PORT_WRITE_PS)
        if self.flight.active:
            self.flight.span("dimm.media_port", ready, handoff, phase="write")
        durable = self.media.access(self.wear.translate(block), True, handoff)

        slot = self._ait_tags.get(page)
        if slot is not None:
            self._ait_tags.move_to_end(page)
        else:
            slot = self._ait_insert(page, now)
        self.dram.access_block(
            self._slot_addr(slot, block - page), cfg.rmw.entry_bytes, True,
            done_table,
        )
        self._c_drained_bytes.add(cfg.media.granularity)
        return handoff, durable

    # ------------------------------------------------------------------
    # RMW buffer
    # ------------------------------------------------------------------

    def _rmw_touch(self, block: int) -> bool:
        """LRU lookup; returns hit/miss."""
        if block in self._rmw_tags:
            self._rmw_tags.move_to_end(block)
            return True
        return False

    def _rmw_insert(self, block: int) -> None:
        self._rmw_tags[block] = True
        if len(self._rmw_tags) > self.config.rmw.entries:
            self._rmw_tags.popitem(last=False)
            self.stats.counter("dimm.rmw_evictions").add()

    # ------------------------------------------------------------------
    # public request interface (called by the iMC)
    # ------------------------------------------------------------------

    def profile_points(self):
        """Host-profiler attribution points (see ``TargetSystem``).

        The queueing stations themselves (LSQ, media port, buses) are
        slotted and can't carry instance-side wrappers; their wall time
        lands in these enclosing DIMM/AIT/media/wear keys.
        """
        yield ("dimm.read_line", self, "read_line")
        yield ("dimm.write_line", self, "write_line")
        yield ("dimm.flush", self, "flush")
        yield ("dimm.flush_wc", self, "_flush_wc")
        yield ("ait.lookup", self, "_ait_lookup")
        yield ("ait.insert", self, "_ait_insert")
        yield ("ait.read_block", self, "_ait_read_block")
        yield ("ait.write_block", self, "_ait_write_block")
        yield ("media.access", self.media, "access")
        yield ("media.access_block", self.media, "access_block")
        yield ("wear.on_read", self.wear, "on_read")
        yield ("wear.on_write", self.wear, "on_write")
        if self.lazy is not None:
            yield ("lazy.absorb", self.lazy, "absorb")
            yield ("lazy.flush", self.lazy, "flush")

    def read_line(self, addr: int, now: int) -> int:
        """Service a 64B read; returns the time data reaches the iMC."""
        t = self.t
        self._c_reads.add()
        self._c_req_read_bytes.add(CACHE_LINE)
        admit = self.lsq.admit(now)
        start = self._turnaround(False, admit + t.lsq_proc_ps)
        block = self._block_of(addr)
        fl = self.flight
        if fl.active:
            fl.span("dimm.lsq", now, admit, phase="wait")
            fl.span("dimm.lsq", admit, start, phase="proc")

        if self.lazy is not None and self.lazy.contains(block):
            # The Lazy cache holds the newest copy of wear-hot blocks.
            self._c_rmw_hits.add()
            ready = self.engine.serve(start, self.lazy.config.hit_ps)
            if fl.active:
                fl.span("dimm.lazy", start, ready, phase="hit")
        elif self._rmw_touch(block):
            self._c_rmw_hits.add()
            ready = self.engine.serve(start, t.rmw_hit_ps)
            if fl.active:
                fl.span("dimm.rmw", start, ready, phase="hit")
        else:
            self._c_rmw_misses.add()
            self._c_rmw_fill_bytes.add(self.config.rmw.entry_bytes)
            op_done = self.engine.serve(start, t.engine_op_ps)
            if fl.active:
                fl.span("dimm.engine", start, op_done, phase="op")
            ready = self._ait_read_block(addr, op_done)
            if fl.active:
                fl.span("dimm.rmw", ready, ready + t.rmw_fill_ps,
                        phase="fill")
            ready += t.rmw_fill_ps
            self._rmw_insert(block)

        done = self.bus.serve(ready, t.bus_line_ps) + t.ddrt_grant_ps
        if fl.active:
            fl.span("dimm.return_bus", ready, done, phase="return")
        self.lsq.retire_at(done)
        return done

    def write_line(self, addr: int, now: int, nbytes: int = CACHE_LINE) -> int:
        """Accept one 64B store line from the iMC WPQ drain.

        Returns the LSQ admission time (when the WPQ slot frees).  The
        line's journey to media continues asynchronously; its LSQ slot is
        freed when the (possibly combined) downstream op completes.
        """
        t = self.t
        self._c_writes.add()
        self._c_write_bytes.add(nbytes)
        admit = self.lsq.admit(now)
        arrive = self._turnaround(True, admit + t.lsq_proc_ps)
        block = self._block_of(addr)
        line = align_down(addr, CACHE_LINE)
        fl = self.flight
        if fl.active:
            fl.span("dimm.lsq", now, admit, phase="wait")
            fl.span("dimm.lsq", admit, arrive, phase="proc")

        if (
            self._wc_block == block
            and line not in self._wc_lines
            and arrive - self._wc_last_ps <= self.config.lsq.combine_window_ps
        ):
            if fl.active:
                fl.instant("dimm.lsq", "write_combine", arrive,
                           block=f"0x{block:x}")
            self._wc_lines.add(line)
            self._wc_last_ps = arrive
            if len(self._wc_lines) * CACHE_LINE >= self.config.lsq.combine_bytes:
                self._flush_wc(arrive)
                self.lsq.retire_at(self._wc_drain_ps)
            else:
                # Retirement recorded at the most recent combined-op
                # drain — each admitted line frees its LSQ slot at an op
                # completion, which keeps slot-free spacing equal to the
                # downstream drain rate under FCFS.
                self.lsq.retire_at(max(arrive, self._wc_drain_ps))
            return admit

        self._flush_wc(arrive)
        self._wc_block = block
        self._wc_lines = {line}
        self._wc_last_ps = arrive
        self.lsq.retire_at(max(arrive, self._wc_drain_ps))
        return admit

    def _flush_wc(self, now: int) -> int:
        """Issue the pending write-combine block downstream."""
        if self._wc_block is None:
            return now
        t = self.t
        block = self._wc_block
        nbytes = len(self._wc_lines) * CACHE_LINE
        self._wc_block = None
        self._wc_lines = set()

        if self.lazy is not None:
            # Lazy cache (Section V-C): wear-hot blocks are absorbed by
            # the 3KB ADR-protected cache instead of writing through —
            # no media write, no wear accrual, no migration stall.
            wear_cfg = self.wear.config
            count = self.wear.block_write_count(block)
            if count >= wear_cfg.migrate_threshold * self.lazy.config.hot_fraction:
                self.lazy.mark_hot(block)
            if self.lazy.contains(block) or self.lazy.is_hot(block):
                done = self.engine.serve(now, self.lazy.config.hit_ps)
                if self.flight.active:
                    self.flight.span("dimm.lazy", now, done, phase="absorb")
                fa = self.faults
                if fa.enabled:
                    # The block's newest data now lives in Lazy SRAM, not
                    # media — the persistence checker marks it dirty until
                    # an eviction writeback lands.
                    fa.note_lazy_absorb(block, done)
                for victim in self.lazy.absorb(block, now=done):
                    _, durable = self._ait_write_block(victim, 256, done)
                    done = max(done, durable)
                    if fa.enabled:
                        fa.note_lazy_writeback(victim, durable)
                self._wc_drain_ps = done
                return done

        start = self.engine.serve(now, t.engine_op_ps)
        if self.flight.active:
            self.flight.span("dimm.engine", now, start, phase="op")
        partial = nbytes < self.config.lsq.combine_bytes
        if partial:
            # Sub-256B store: read-modify-write.  The merge data comes
            # from the RMW buffer when resident, otherwise from the AIT.
            self._c_partial_ops.add()
            if not self._rmw_touch(block):
                start = self._ait_read_block(block, start)
        else:
            self._c_combined_ops.add()
        self._rmw_insert(block)
        handoff, durable = self._ait_write_block(block, nbytes, start)
        if (partial and t.engine_holds_partial
                and handoff > self.engine.busy_until):
            # The RMW engine holds a partial op through merge and media
            # handoff.  This single serial resource bounds random
            # small-write throughput — producing the paper's LSQ-overflow
            # store plateau (Fig. 5a, 4KB inflection) and the RMW
            # contention scaling pathology — while combined 256B ops only
            # pay the media write port, keeping sequential bandwidth high.
            self.engine.busy_until = handoff
        self._wc_drain_ps = durable
        return durable

    def flush(self, now: int) -> int:
        """Fence: flush pending combining state and drain the LSQ."""
        done = self._flush_wc(now)
        drain = self.lsq.drain_time(now)
        if self.flight.active:
            self.flight.span("dimm.lsq", now, drain, phase="drain")
        return max(done, drain)

    # ------------------------------------------------------------------
    # experiment support
    # ------------------------------------------------------------------

    def warm_fill(self, start_addr: int, length: int) -> None:
        """Pre-populate buffer tag state for a region, equivalent to
        running an untimed warm-up pass (documented fast-forward)."""
        cfg = self.config
        page = self._page_of(start_addr)
        end = start_addr + length
        while page < end and len(self._ait_tags) < cfg.ait.entries:
            if page not in self._ait_tags:
                self._ait_insert(page, 0)
            page += cfg.ait.entry_bytes
        block = self._block_of(start_addr)
        while block < end and len(self._rmw_tags) < cfg.rmw.entries:
            self._rmw_insert(block)
            block += cfg.rmw.entry_bytes

    def invalidate_buffers(self) -> None:
        """Drop all cached tag state (cold restart between experiments)."""
        self._rmw_tags.clear()
        self._ait_tags.clear()
        self._ait_free = list(range(self.config.ait.entries - 1, -1, -1))
        self._wc_block = None
        self._wc_lines = set()

    def reset(self) -> None:
        """As-built state for warm-cache reuse: every station clock, tag
        store, combining register, and statistic back to construction
        values, so a reused DIMM times requests bit-identically to a
        fresh one."""
        self.invalidate_buffers()
        self._table_cache.clear()
        self._wc_last_ps = 0
        self._wc_drain_ps = 0
        self._last_dir_write = None
        self.lsq.reset()
        self.engine.reset()
        self.media_port.reset()
        self.bus.reset()
        self.dram.reset()
        self.media.reset()
        self.wear.reset()
        if self.lazy is not None:
            self.lazy.reset()
        self.stats.reset()

    @property
    def rmw_read_amplification(self) -> float:
        """Bytes filled into the RMW buffer per requested read byte."""
        requested = self._c_req_read_bytes.value
        return self._c_rmw_fill_bytes.value / requested if requested else 0.0

    @property
    def ait_read_amplification(self) -> float:
        """Bytes fetched from media per requested read byte."""
        requested = self._c_req_read_bytes.value
        return self._c_ait_fill_bytes.value / requested if requested else 0.0

    @property
    def write_amplification(self) -> float:
        """Media bytes written per requested write byte."""
        requested = self._c_write_bytes.value
        return self._c_drained_bytes.value / requested if requested else 0.0
