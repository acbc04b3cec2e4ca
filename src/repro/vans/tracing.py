"""Trace capture and replay (the paper's "trace mode").

The paper catches memory traces of the LENS microbenchmarks and of SPEC
runs, then feeds them into VANS standalone.  This module provides:

* a simple line-oriented trace format: ``<op> <hex addr> <size>`` with
  op in {R, W, NT, CLWB, F};
* :class:`TracingProxy` — wraps any TargetSystem and records everything
  that flows through it;
* :func:`save_trace` / :func:`load_trace` — file round-trip;
* :func:`replay` — drive any TargetSystem from a trace, returning
  latency statistics (reads dependent-chained, writes issue-on-accept,
  matching the LENS drivers).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Union

from repro.common.errors import ReproError
from repro.engine.request import CACHE_LINE, Op
from repro.engine.stats import Histogram
from repro.target import TargetSystem

_OP_TOKEN = {Op.READ: "R", Op.WRITE: "W", Op.WRITE_NT: "NT",
             Op.CLWB: "CLWB", Op.FENCE: "F"}
_TOKEN_OP = {v: k for k, v in _OP_TOKEN.items()}


@dataclass(frozen=True)
class TraceRecord:
    """One memory operation in a trace."""

    op: Op
    addr: int = 0
    size: int = CACHE_LINE

    def render(self) -> str:
        if self.op is Op.FENCE:
            return "F"
        return f"{_OP_TOKEN[self.op]} {self.addr:#x} {self.size}"

    @classmethod
    def parse(cls, line: str) -> "TraceRecord":
        parts = line.split()
        if not parts:
            raise ReproError("empty trace line")
        op = _TOKEN_OP.get(parts[0].upper())
        if op is None:
            raise ReproError(f"unknown trace op {parts[0]!r}")
        if op is Op.FENCE:
            return cls(op=op)
        if len(parts) != 3:
            raise ReproError(f"malformed trace line: {line!r}")
        try:
            addr = int(parts[1], 0)
            size = int(parts[2])
        except ValueError as exc:
            raise ReproError(f"malformed trace line: {line!r}") from exc
        if addr < 0 or size <= 0:
            raise ReproError(f"malformed trace line: {line!r}")
        return cls(op=op, addr=addr, size=size)


class TracingProxy(TargetSystem):
    """Record every operation while forwarding to a real target."""

    def __init__(self, target: TargetSystem) -> None:
        super().__init__()
        self.target = target
        self.records: List[TraceRecord] = []
        self.name = f"traced-{target.name}"

    def read(self, addr: int, now: int) -> int:
        self.records.append(TraceRecord(Op.READ, addr))
        return self.target.read(addr, now)

    def write(self, addr: int, now: int) -> int:
        self.records.append(TraceRecord(Op.WRITE_NT, addr))
        return self.target.write(addr, now)

    def fence(self, now: int) -> int:
        self.records.append(TraceRecord(Op.FENCE))
        return self.target.fence(now)

    def warm_fill(self, start_addr: int, length: int) -> None:
        self.target.warm_fill(start_addr, length)


def save_trace(records: Iterable[TraceRecord],
               path: Union[str, Path]) -> int:
    """Write records to ``path``; returns the count."""
    count = 0
    with open(path, "w", encoding="ascii") as fh:
        for record in records:
            fh.write(record.render() + "\n")
            count += 1
    return count


def load_trace(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Stream records from ``path`` (skips blank/comment lines)."""
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            yield TraceRecord.parse(line)


@dataclass
class ReplayResult:
    """Latency statistics of one trace replay."""

    reads: Histogram
    writes: Histogram
    fences: int
    end_ps: int

    @property
    def read_mean_ns(self) -> float:
        return self.reads.mean / 1000.0

    @property
    def write_mean_ns(self) -> float:
        return self.writes.mean / 1000.0


def replay(records: Iterable[TraceRecord], target: TargetSystem,
           now: int = 0) -> ReplayResult:
    """Drive ``target`` with a trace, LENS-style: reads form a dependent
    chain, writes issue at their accept times, fences drain."""
    reads = Histogram("replay.read_ps")
    writes = Histogram("replay.write_ps")
    fences = 0
    for record in records:
        if record.op is Op.FENCE:
            now = target.fence(now)
            fences += 1
        elif record.op.is_write:
            for line in target.line_span(record.addr, record.size):
                accept = target.write(line, now)
                writes.record(accept - now)
                now = accept
        else:
            for line in target.line_span(record.addr, record.size):
                done = target.read(line, now)
                reads.record(done - now)
                now = done
    return ReplayResult(reads=reads, writes=writes, fences=fences, end_ps=now)
