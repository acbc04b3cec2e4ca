"""Two-socket NUMA wrapper.

Several studies the paper discusses ([41], [59], [65]) observe that
accessing Optane on a *remote* NUMA node degrades sharply, beyond the
usual DRAM NUMA penalty, because the interconnect adds latency on an
already long path and its bandwidth throttles the DIMM's.  This module
models that: a core on node 0 accessing memory homed on node 1 pays a
per-hop interconnect latency plus a shared-link bandwidth constraint.
"""

from __future__ import annotations

from typing import Optional

from repro.common.units import GIB, NS
from repro.engine.queueing import Server
from repro.engine.request import CACHE_LINE
from repro.engine.stats import StatsRegistry
from repro.target import TargetSystem


class NumaSystem(TargetSystem):
    """Address-range NUMA over two memory systems.

    Addresses below ``node_bytes`` are node-local to the (node-0) core;
    addresses above are homed on node 1 and traverse the interconnect.
    """

    def __init__(
        self,
        local: TargetSystem,
        remote: TargetSystem,
        node_bytes: int = 4 * GIB,
        hop_latency_ps: int = 70 * NS,
        link_line_ps: int = 3_500,  # ~18GB/s per direction
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        super().__init__()
        self.local = local
        self.remote = remote
        self.node_bytes = node_bytes
        self.hop_latency_ps = hop_latency_ps
        self.stats = stats or StatsRegistry()
        self._link = Server()
        self._link_line_ps = link_line_ps
        self._c_local = self.stats.counter("numa.local")
        self._c_remote = self.stats.counter("numa.remote")
        self.name = f"numa({local.name}|{remote.name})"

    def _route(self, addr: int):
        if addr < self.node_bytes:
            return self.local, addr, False
        return self.remote, addr - self.node_bytes, True

    def read(self, addr: int, now: int) -> int:
        target, local_addr, is_remote = self._route(addr)
        if not is_remote:
            self._c_local.add()
            return target.read(local_addr, now)
        self._c_remote.add()
        # request hop out, data transfer back over the shared link
        start = self._link.serve(now + self.hop_latency_ps,
                                 self._link_line_ps)
        done = target.read(local_addr, start)
        return done + self.hop_latency_ps

    def write(self, addr: int, now: int) -> int:
        target, local_addr, is_remote = self._route(addr)
        if not is_remote:
            self._c_local.add()
            return target.write(local_addr, now)
        self._c_remote.add()
        start = self._link.serve(now + self.hop_latency_ps,
                                 self._link_line_ps)
        return target.write(local_addr, start)

    def fence(self, now: int) -> int:
        done = self.local.fence(now)
        return max(done, self.remote.fence(now) + self.hop_latency_ps)

    def warm_fill(self, start_addr: int, length: int) -> None:
        if start_addr < self.node_bytes:
            self.local.warm_fill(start_addr,
                                 min(length, self.node_bytes - start_addr))
        end = start_addr + length
        if end > self.node_bytes:
            rstart = max(0, start_addr - self.node_bytes)
            self.remote.warm_fill(rstart, end - self.node_bytes - rstart)

    @property
    def remote_fraction(self) -> float:
        total = self._c_local.value + self._c_remote.value
        return self._c_remote.value / total if total else 0.0
