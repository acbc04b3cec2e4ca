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
from itertools import filterfalse, islice
from typing import Optional, Set, Tuple

from repro.common.units import align_down
from repro.dram.device import DramDevice
from repro.engine.queueing import FcfsStation, Server
from repro.engine.request import CACHE_LINE
from repro.engine.stats import StatsRegistry
from repro.hooks import Hooks
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
                 hooks: Optional[Hooks] = None) -> None:
        from repro.instrument import NULL_BUS
        self.config = config
        self.stats = stats or StatsRegistry()
        self.instrument = instrument if instrument is not None else NULL_BUS
        self.hooks = hooks if hooks is not None else Hooks()
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
                                 hooks=self.hooks)
        self.wear = WearLeveler(
            config.wear,
            capacity_bytes=config.media.capacity_bytes,
            stats=self.stats,
            track_line_wear=track_line_wear,
            hooks=self.hooks,
        )
        self.lazy = None
        if config.lazy_cache:
            from repro.optim.lazycache import LazyCache
            self.lazy = LazyCache(stats=self.stats, hooks=self.hooks)

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

        # Frozen geometry and timings, fixed at construction so the
        # request path reads no ``self.config`` chain.
        self._rmw_bytes = config.rmw.entry_bytes
        self._rmw_entries = config.rmw.entries
        self._ait_bytes = config.ait.entry_bytes
        self._record_bytes = config.ait.table_record_bytes
        self._table_span = max(self._table_bytes, CACHE_LINE)
        self._gran = config.media.granularity
        self._combine_bytes = config.lsq.combine_bytes
        self._combine_window_ps = config.lsq.combine_window_ps
        self._lsq_proc_ps = t.lsq_proc_ps
        self._rmw_hit_ps = t.rmw_hit_ps
        self._rmw_fill_ps = t.rmw_fill_ps
        self._engine_op_ps = t.engine_op_ps
        self._bus_line_ps = t.bus_line_ps
        self._ddrt_grant_ps = t.ddrt_grant_ps
        self._engine_holds_partial = t.engine_holds_partial
        if self.lazy is not None:
            self._lazy_hit_ps = self.lazy.config.hit_ps
            self._lazy_hot_writes = (config.wear.migrate_threshold
                                     * self.lazy.config.hot_fraction)

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
        # Eviction counters enter the registry (and the snapshot) at the
        # first eviction; each DIMM binds it then.
        self._c_ait_evictions = None
        self._c_rmw_evictions = None

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
    # AIT paths
    # ------------------------------------------------------------------

    def _ait_lookup(self, addr: int, now: int) -> int:
        """Translation-record read from the on-DIMM DRAM; returns
        completion."""
        done = self.dram.access(
            addr // self._ait_bytes * self._record_bytes % self._table_span,
            False, now)
        h = self.hooks
        if h.on:
            h.flight.span("dimm.ait", now, done, phase="table",
                          source="dram")
        return done

    def _ait_insert(self, page: int, now: int) -> int:
        """Allocate a buffer slot for ``page`` (LRU evict); returns slot."""
        if self._ait_free:
            slot = self._ait_free.pop()
        else:
            _, slot = self._ait_tags.popitem(last=False)
            evictions = self._c_ait_evictions
            if evictions is None:
                evictions = self._c_ait_evictions = self.stats.counter(
                    "dimm.ait_evictions")
            evictions.value += 1
        self._ait_tags[page] = slot
        return slot

    def _ait_read_block(self, addr: int, now: int) -> int:
        """Fetch the 256B block of ``addr`` from the AIT level.

        Returns the time the block is available to fill the RMW buffer.
        AIT-buffer hits read from on-DIMM DRAM; misses fetch the whole
        4KB entry from media (critical-block-first, so the caller gets
        its 256B as soon as that unit lands; the rest of the fill keeps
        the media port busy in the background).  The entry lies inside
        one wear block (``DimmConfig`` checks the geometry), so one
        remap lookup places all of its units.
        """
        page = addr - addr % self._ait_bytes
        offset = addr - addr % self._rmw_bytes - page
        done_table = self._ait_lookup(addr, now)

        h = self.hooks
        tags = self._ait_tags
        slot = tags.get(page)
        if slot is not None:
            tags.move_to_end(page)
            self._c_ait_hits.value += 1
            done = self.dram.access_block(
                self._table_bytes + slot * self._ait_bytes + offset,
                self._rmw_bytes, False, done_table)
            if h.on:
                h.flight.span("dimm.ait", done_table, done,
                              phase="buffer_hit")
            return done

        # AIT miss: 4KB media fill.
        self._c_ait_misses.value += 1
        self._c_ait_fill_bytes.value += self._ait_bytes
        wear = self.wear
        start = wear.on_read(page, done_table)
        physical = wear.translate(page)
        # Critical 256B first: its array read, then its port slot.
        critical = physical + offset
        array_done = self.media.access(critical, False, start)
        port = self.media_port
        first = port.serve(array_done, MEDIA_PORT_READ_PS)
        if h.on:
            h.flight.span("dimm.media_port", array_done, first, phase="read")
        # Background: the remaining units of the 4KB entry, each through
        # the port after its array read.
        self.media.access_block(physical, self._ait_bytes, False, start,
                                skip=critical, port=port,
                                port_ps=MEDIA_PORT_READ_PS)
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
        page = addr - addr % self._ait_bytes
        block = addr - addr % self._rmw_bytes
        done_table = self._ait_lookup(addr, now)

        wear = self.wear
        ready, _migrated = wear.on_write(block, done_table)
        handoff = self.media_port.serve(ready, MEDIA_PORT_WRITE_PS)
        h = self.hooks
        if h.on:
            h.flight.span("dimm.media_port", ready, handoff, phase="write")
        durable = self.media.access(wear.translate(block), True, handoff)

        tags = self._ait_tags
        slot = tags.get(page)
        if slot is not None:
            tags.move_to_end(page)
        else:
            slot = self._ait_insert(page, now)
        self.dram.access_block(
            self._table_bytes + slot * self._ait_bytes + (block - page),
            self._rmw_bytes, True, done_table)
        self._c_drained_bytes.value += self._gran
        return handoff, durable

    # ------------------------------------------------------------------
    # RMW buffer
    # ------------------------------------------------------------------

    def _rmw_insert(self, block: int) -> None:
        tags = self._rmw_tags
        tags[block] = True
        if len(tags) > self._rmw_entries:
            tags.popitem(last=False)
            evictions = self._c_rmw_evictions
            if evictions is None:
                evictions = self._c_rmw_evictions = self.stats.counter(
                    "dimm.rmw_evictions")
            evictions.value += 1

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
        yield ("dimm.warm_fill", self, "warm_fill")
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
        self._c_reads.value += 1
        self._c_req_read_bytes.value += CACHE_LINE
        lsq = self.lsq
        admit = lsq.admit(now)
        start = admit + self._lsq_proc_ps
        if self._last_dir_write:
            # read<->write bus redirection (TURNAROUND_PS)
            start += TURNAROUND_PS
        self._last_dir_write = False
        block = addr - addr % self._rmw_bytes
        h = self.hooks
        if h.on:
            h.flight.span("dimm.lsq", now, admit, phase="wait")
            h.flight.span("dimm.lsq", admit, start, phase="proc")

        lazy = self.lazy
        rmw = self._rmw_tags
        if lazy is not None and lazy.contains(block):
            # The Lazy cache holds the newest copy of wear-hot blocks.
            self._c_rmw_hits.value += 1
            ready = self.engine.serve(start, self._lazy_hit_ps)
            if h.on:
                h.flight.span("dimm.lazy", start, ready, phase="hit")
        elif block in rmw:
            rmw.move_to_end(block)
            self._c_rmw_hits.value += 1
            ready = self.engine.serve(start, self._rmw_hit_ps)
            if h.on:
                h.flight.span("dimm.rmw", start, ready, phase="hit")
        else:
            self._c_rmw_misses.value += 1
            self._c_rmw_fill_bytes.value += self._rmw_bytes
            op_done = self.engine.serve(start, self._engine_op_ps)
            if h.on:
                h.flight.span("dimm.engine", start, op_done, phase="op")
            ready = self._ait_read_block(addr, op_done)
            if h.on:
                h.flight.span("dimm.rmw", ready, ready + self._rmw_fill_ps,
                              phase="fill")
            ready += self._rmw_fill_ps
            self._rmw_insert(block)

        done = self.bus.serve(ready, self._bus_line_ps) + self._ddrt_grant_ps
        if h.on:
            h.flight.span("dimm.return_bus", ready, done, phase="return")
        lsq.retire_at(done)
        return done

    def write_line(self, addr: int, now: int, nbytes: int = CACHE_LINE) -> int:
        """Accept one 64B store line from the iMC WPQ drain.

        Returns the LSQ admission time (when the WPQ slot frees).  The
        line's journey to media continues asynchronously; its LSQ slot is
        freed when the (possibly combined) downstream op completes.
        """
        self._c_writes.value += 1
        self._c_write_bytes.value += nbytes
        lsq = self.lsq
        admit = lsq.admit(now)
        arrive = admit + self._lsq_proc_ps
        if self._last_dir_write is False:
            # read<->write bus redirection (TURNAROUND_PS)
            arrive += TURNAROUND_PS
        self._last_dir_write = True
        block = addr - addr % self._rmw_bytes
        line = addr - addr % CACHE_LINE
        h = self.hooks
        if h.on:
            h.flight.span("dimm.lsq", now, admit, phase="wait")
            h.flight.span("dimm.lsq", admit, arrive, phase="proc")

        if (
            self._wc_block == block
            and line not in self._wc_lines
            and arrive - self._wc_last_ps <= self._combine_window_ps
        ):
            if h.on and h.flight.active:
                h.flight.instant("dimm.lsq", "write_combine", arrive,
                                 block=f"0x{block:x}")
            self._wc_lines.add(line)
            self._wc_last_ps = arrive
            if len(self._wc_lines) * CACHE_LINE >= self._combine_bytes:
                self._flush_wc(arrive)
                lsq.retire_at(self._wc_drain_ps)
            else:
                # Retirement recorded at the most recent combined-op
                # drain — each admitted line frees its LSQ slot at an op
                # completion, which keeps slot-free spacing equal to the
                # downstream drain rate under FCFS.
                drain = self._wc_drain_ps
                lsq.retire_at(arrive if arrive > drain else drain)
            return admit

        self._flush_wc(arrive)
        self._wc_block = block
        self._wc_lines = {line}
        self._wc_last_ps = arrive
        drain = self._wc_drain_ps
        lsq.retire_at(arrive if arrive > drain else drain)
        return admit

    def _flush_wc(self, now: int) -> int:
        """Issue the pending write-combine block downstream."""
        block = self._wc_block
        if block is None:
            return now
        h = self.hooks
        nbytes = len(self._wc_lines) * CACHE_LINE
        self._wc_block = None
        self._wc_lines = set()

        lazy = self.lazy
        if lazy is not None:
            # Lazy cache (Section V-C): wear-hot blocks are absorbed by
            # the 3KB ADR-protected cache instead of writing through —
            # no media write, no wear accrual, no migration stall.
            if self.wear.block_write_count(block) >= self._lazy_hot_writes:
                lazy.mark_hot(block)
            if lazy.contains(block) or lazy.is_hot(block):
                done = self.engine.serve(now, self._lazy_hit_ps)
                if h.on:
                    h.flight.span("dimm.lazy", now, done, phase="absorb")
                    # The block's newest data now lives in Lazy SRAM, not
                    # media — the persistence checker marks it dirty until
                    # an eviction writeback lands.
                    h.faults.note_lazy_absorb(block, done)
                for victim in lazy.absorb(block, now=done):
                    _, durable = self._ait_write_block(victim, 256, done)
                    if durable > done:
                        done = durable
                    if h.on:
                        h.faults.note_lazy_writeback(victim, durable)
                self._wc_drain_ps = done
                return done

        engine = self.engine
        start = engine.serve(now, self._engine_op_ps)
        if h.on:
            h.flight.span("dimm.engine", now, start, phase="op")
        partial = nbytes < self._combine_bytes
        if partial:
            # Sub-256B store: read-modify-write.  The merge data comes
            # from the RMW buffer when resident, otherwise from the AIT.
            self._c_partial_ops.value += 1
            rmw = self._rmw_tags
            if block in rmw:
                rmw.move_to_end(block)
            else:
                start = self._ait_read_block(block, start)
        else:
            self._c_combined_ops.value += 1
        self._rmw_insert(block)
        handoff, durable = self._ait_write_block(block, nbytes, start)
        if (partial and self._engine_holds_partial
                and handoff > engine.busy_until):
            # The RMW engine holds a partial op through merge and media
            # handoff.  This single serial resource bounds random
            # small-write throughput — producing the paper's LSQ-overflow
            # store plateau (Fig. 5a, 4KB inflection) and the RMW
            # contention scaling pathology — while combined 256B ops only
            # pay the media write port, keeping sequential bandwidth high.
            engine.busy_until = handoff
        self._wc_drain_ps = durable
        return durable

    def flush(self, now: int) -> int:
        """Fence: flush pending combining state and drain the LSQ."""
        done = self._flush_wc(now)
        drain = self.lsq.drain_time(now)
        h = self.hooks
        if h.on:
            h.flight.span("dimm.lsq", now, drain, phase="drain")
        return done if done > drain else drain

    # ------------------------------------------------------------------
    # experiment support
    # ------------------------------------------------------------------

    def warm_fill(self, start_addr: int, length: int) -> None:
        """Pre-populate buffer tag state for a region, equivalent to
        running an untimed warm-up pass (documented fast-forward).

        The region's pages (blocks) not yet buffered are appended in
        address order until the AIT (RMW) buffer is full, taking AIT
        slots off the free list in :meth:`_ait_insert`'s order.  Entries
        already buffered keep their LRU place; nothing is evicted.
        """
        cfg = self.config
        end = start_addr + length
        tags = self._ait_tags
        step = cfg.ait.entry_bytes
        pages = list(islice(
            filterfalse(tags.__contains__,
                        range(align_down(start_addr, step), end, step)),
            cfg.ait.entries - len(tags)))
        free = self._ait_free
        cut = len(free) - len(pages)
        tags.update(zip(pages, reversed(free[cut:])))
        del free[cut:]
        rmw = self._rmw_tags
        step = cfg.rmw.entry_bytes
        rmw.update(dict.fromkeys(islice(
            filterfalse(rmw.__contains__,
                        range(align_down(start_addr, step), end, step)),
            cfg.rmw.entries - len(rmw)), True))

    def invalidate_buffers(self) -> None:
        """Drop all cached tag state, Lazy-cache entries included (cold
        restart between experiments, or a power cut)."""
        self._rmw_tags.clear()
        self._ait_tags.clear()
        self._ait_free = list(range(self.config.ait.entries - 1, -1, -1))
        self._wc_block = None
        self._wc_lines = set()
        if self.lazy is not None:
            self.lazy.invalidate()

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
