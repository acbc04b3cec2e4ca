"""Stride microbenchmark (Section III-A).

Sequentially reads or writes cache lines at a fixed striding distance.
Variants:

1. bandwidth at a fixed stride across access sizes (performance probe);
2. multi-DIMM interleaving characterization: execution time of
   sequential/strided writes across total sizes (Fig. 7a).

Reads use a fixed concurrency window (the paper's streaming loads are
independent, unlike pointer chasing); writes issue as accepted.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.common.units import NS, US
from repro.engine.request import CACHE_LINE
from repro.engine.stats import LatencySeries
from repro.target import TargetSystem


class Stride:
    """Driver for the stride variants."""

    def __init__(self, read_window: int = 16) -> None:
        self.read_window = read_window

    def read_bandwidth_gbs(self, target: TargetSystem, total_bytes: int,
                           stride: int = CACHE_LINE, now: int = 0) -> float:
        """Streaming-read bandwidth with ``read_window`` lines in flight."""
        inflight: deque = deque()
        window = self.read_window
        read = target.read
        addrs = range(0, total_bytes, stride)
        last_done = now
        for addr in addrs:
            if len(inflight) >= window:
                gate = inflight.popleft()
                if gate > now:
                    now = gate
            done = read(addr, now)
            inflight.append(done)
            if done > last_done:
                last_done = done
        elapsed = max(1, last_done)
        return len(addrs) * CACHE_LINE / (elapsed / 1e12) / 1e9

    def write_bandwidth_gbs(self, target: TargetSystem, total_bytes: int,
                            stride: int = CACHE_LINE, nt: bool = True,
                            mode: str = None, now: int = 0) -> float:
        """Streaming-write bandwidth.

        ``mode`` selects the store flavour:

        * ``"nt"`` — non-temporal stores (uses ``write_nt`` if the target
          distinguishes it);
        * ``"rfo"`` — regular cached stores at the *memory* interface: a
          read-for-ownership plus the write-back (why cached-store
          bandwidth trails nt-store bandwidth on Optane, Fig. 1a);
        * ``"cached"`` — a plain write-back stream with no RFO cost
          (systems whose emulation layer does not slow ownership reads,
          like PMEP).

        ``nt`` is a backwards-compatible alias: True -> "nt",
        False -> "rfo".
        """
        if mode is None:
            mode = "nt" if nt else "rfo"
        write_nt = getattr(target, "write_nt", None)
        store = write_nt if mode == "nt" and write_nt is not None else target.write
        addrs = range(0, total_bytes, stride)
        start = now
        if mode == "rfo":
            read = target.read
            for addr in addrs:
                now = store(addr, read(addr, now))
        else:
            for addr in addrs:
                now = store(addr, now)
        now = target.fence(now)
        elapsed = max(1, now - start)
        return len(addrs) * CACHE_LINE / (elapsed / 1e12) / 1e9

    def sequential_write_times_us(self, target_factory, sizes: Sequence[int]
                                  ) -> LatencySeries:
        """Variant 2: execution time of sequential write bursts (Fig. 7a).

        A fresh system per point so every burst starts with empty queues.
        """
        series = LatencySeries("seq-write-exec-us")
        for size in sizes:
            target = target_factory()
            now = 0
            for addr in range(0, size, CACHE_LINE):
                now = target.write(addr, now)
            now = target.fence(now)
            series.add(size, now / US)
        return series

    def strided_write_times_us(self, target_factory, total_bytes: int,
                               strides: Sequence[int]) -> LatencySeries:
        """Execution time of a fixed volume at varying stride distances."""
        series = LatencySeries("strided-write-exec-us")
        for stride in strides:
            target = target_factory()
            now = 0
            nlines = total_bytes // CACHE_LINE
            for i in range(nlines):
                now = target.write(i * stride, now)
            now = target.fence(now)
            series.add(stride, now / US)
        return series
