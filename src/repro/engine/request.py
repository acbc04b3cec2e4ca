"""Memory request types shared by all memory models.

A :class:`Request` is one transaction at the memory-bus level: a cache
line (or multi-line) read/write plus the persistence-related operations
the paper's microbenchmarks use (non-temporal stores, ``clwb``
write-backs, fences).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Any, Dict, Optional

CACHE_LINE = 64

_next_request_id = itertools.count()


class Op(Enum):
    """Request operation kinds.

    ``WRITE`` is a regular (cached) store arriving at memory as a
    write-back; ``WRITE_NT`` is a non-temporal store that bypasses the CPU
    caches (what LENS uses, via AVX-512 nt instructions); ``CLWB`` is a
    cache-line write-back; ``FENCE`` orders and drains the persistence
    path (``sfence``/``mfence`` at the memory system boundary).
    """

    READ = auto()
    WRITE = auto()
    WRITE_NT = auto()
    CLWB = auto()
    FENCE = auto()

    @property
    def is_write(self) -> bool:
        return self in (Op.WRITE, Op.WRITE_NT, Op.CLWB)

    @property
    def is_read(self) -> bool:
        return self is Op.READ


@dataclass(slots=True)
class Request:
    """One memory transaction.

    Slotted (no per-instance ``__dict__``): request-heavy replays
    allocate millions of these, and the slot layout roughly halves the
    per-request footprint while speeding up field access.

    Attributes:
        addr: physical byte address (64B aligned for line requests).
        size: access size in bytes (usually 64).
        op: operation kind.
        issue_ps: time the requester issued the transaction.
        accept_ps: time the memory system admitted it (>= issue_ps when
            backpressured, e.g. a full WPQ).
        complete_ps: time the transaction finished (data returned for
            reads; durably accepted for writes).
        mkpt_hint: Pre-translation `mkpt` mark (Section V-B of the paper):
            asks the DIMM to return a pre-translated TLB entry for the
            pointer stored at this address alongside the data.
        meta: free-form per-request annotations (experiment bookkeeping).
        flight: the :class:`repro.flight.FlightRecord` of this request's
            station crossings, attached by ``TargetSystem.submit`` when a
            flight recorder sampled it (``None`` otherwise).
    """

    addr: int
    size: int = CACHE_LINE
    op: Op = Op.READ
    issue_ps: int = 0
    accept_ps: int = 0
    complete_ps: int = 0
    mkpt_hint: bool = False
    req_id: int = field(default_factory=lambda: next(_next_request_id))
    meta: Optional[Dict[str, Any]] = None
    flight: Optional[Any] = None

    @property
    def latency_ps(self) -> int:
        """End-to-end latency (completion minus issue)."""
        return self.complete_ps - self.issue_ps

    @property
    def line_addr(self) -> int:
        """Address of the containing 64B cache line."""
        return self.addr - (self.addr % CACHE_LINE)

    def annotate(self, key: str, value: Any) -> None:
        """Attach experiment bookkeeping without always paying dict cost."""
        if self.meta is None:
            self.meta = {}
        self.meta[key] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Request(id={self.req_id}, {self.op.name} addr={self.addr:#x} "
            f"size={self.size} issue={self.issue_ps} complete={self.complete_ps})"
        )
