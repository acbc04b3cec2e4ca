"""Cloud / persistent-memory workload generators (Section V).

Each generator builds a *persistent* in-memory structure once (fixed
pointers) and then streams requests against it, reproducing the access
pattern that drives the paper's observations:

* **Redis** — zipf-skewed GETs that hash into a bucket and pointer-chase
  a fixed short chain (the 8.8x read CPI of Fig. 12a comes from these
  dependent, TLB-hostile loads);
* **YCSB** — zipfian update-heavy key-values: a handful of hot keys
  concentrate the writes (the Top10 lines of Fig. 12b);
* **TPCC** — transactional B-tree descents plus row read/write bursts;
* **fio-write** — large sequential write streams;
* **PMDK HashMap** — bucket probe then node update with persistence;
* **PMDK LinkedList** — repeated traversal of one page-strided list (the
  Pre-translation best case: every hop misses the TLB, every hop's
  pointer is stable across traversals).

Generators emit MemOp records: each builds a
:class:`~repro.cpu.system.MemOp` by keyword, a tuple in the record field
order that ``TraceCore.execute`` unpacks by position.  Passing
``mkpt=True`` adds Pre-translation hints to chase loads (the "modified
workload source" of Section V-D).
"""

from __future__ import annotations

from typing import Iterator, List

from repro.common.rng import make_rng
from repro.common.units import KIB, MIB
from repro.cpu.system import MemOp
from repro.engine.request import CACHE_LINE
from repro.workloads.zipf import ZipfSampler

NODE = CACHE_LINE
PAGE = 4 * KIB


def _persistent_chain(key: int, footprint: int, length: int,
                      salt: str) -> List[int]:
    """Deterministic node addresses for one persistent chain: the same
    key always yields the same pointers (as a real heap would)."""
    lines = footprint // NODE
    addrs = []
    h = key * 2654435761 + 0x9E3779B9
    for i in range(length):
        h = (h * 6364136223846793005 + 1442695040888963407 + i) % (1 << 63)
        addrs.append((h % lines) * NODE)
    return addrs


def redis_trace(nops: int, footprint: int = 256 * MIB, seed: int = 0,
                mkpt: bool = False, chain_length: int = 4,
                get_ratio: float = 0.9, nkeys: int = 20_000,
                theta: float = 1.2, rest_cold: float = 0.10
                ) -> Iterator[MemOp]:
    """Redis-like GET/SET stream over persistent hash chains.

    The "rest" phase (request parsing, reply formatting, bookkeeping) is
    mostly cache-resident but touches cold metadata occasionally, as the
    real server does — the Fig. 12a comparison normalizes the read phase
    against this realistic baseline.
    """
    rng = make_rng(seed, "redis")
    zipf = ZipfSampler(nkeys, theta=theta, seed=seed)
    lines = footprint // NODE
    emitted = 0
    while emitted < nops:
        key = zipf.sample()
        is_get = rng.random() < get_ratio
        chain = _persistent_chain(key, footprint, chain_length, "redis")
        for i, vaddr in enumerate(chain):
            next_vaddr = chain[i + 1] if i + 1 < len(chain) else None
            yield MemOp(nonmem=8, vaddr=vaddr, dependent=True,
                        mkpt=mkpt and next_vaddr is not None,
                        next_vaddr=next_vaddr, phase="read")
            emitted += 1
            if emitted >= nops:
                return
        if not is_get:
            yield MemOp(nonmem=6, vaddr=chain[-1], is_write=True,
                        persistent=True, phase="rest")
            emitted += 1
            if emitted >= nops:
                return
        # request parsing / reply formatting: hot, with occasional cold
        # metadata touches (client state, expiry tables, ...)
        for i in range(2):
            if rng.random() < rest_cold:
                vaddr = rng.randrange(lines) * NODE
            else:
                vaddr = (i * NODE) % (8 * KIB)
            yield MemOp(nonmem=40, vaddr=vaddr, phase="rest")
            emitted += 1
            if emitted >= nops:
                return


def ycsb_trace(nops: int, footprint: int = 64 * MIB, seed: int = 0,
               update_ratio: float = 0.5, theta: float = 0.99,
               nkeys: int = 100_000, mkpt: bool = False) -> Iterator[MemOp]:
    """YCSB (workload-A-like) zipfian key-value stream."""
    rng = make_rng(seed, "ycsb")
    zipf = ZipfSampler(nkeys, theta=theta, seed=seed)
    lines = footprint // NODE
    keys = zipf.sample_many(nops)
    for i in range(nops):
        key = int(keys[i])
        vaddr = (key * 2654435761 % lines) * NODE
        phase = "top10" if key < 10 else "rest"
        if rng.random() < update_ratio:
            yield MemOp(nonmem=12, vaddr=vaddr, is_write=True,
                        persistent=True, phase=phase)
        else:
            yield MemOp(nonmem=12, vaddr=vaddr, dependent=True, mkpt=mkpt,
                        phase=phase)


def tpcc_trace(nops: int, footprint: int = 128 * MIB, seed: int = 0,
               mkpt: bool = False, nrows: int = 50_000,
               theta: float = 0.8) -> Iterator[MemOp]:
    """TPCC-like transactions: a fixed 3-level index descent to a
    (zipf-popular) row, then a read/write burst on the row's lines."""
    rng = make_rng(seed, "tpcc")
    zipf = ZipfSampler(nrows, theta=theta, seed=seed)
    lines = footprint // NODE
    emitted = 0
    while emitted < nops:
        row_key = zipf.sample()
        descent = _persistent_chain(row_key, footprint, 3, "tpcc")
        for i, vaddr in enumerate(descent):
            nxt = descent[i + 1] if i + 1 < len(descent) else None
            yield MemOp(nonmem=15, vaddr=vaddr, dependent=True,
                        mkpt=mkpt and nxt is not None, next_vaddr=nxt,
                        phase="read")
            emitted += 1
            if emitted >= nops:
                return
        row = (row_key * 40503 % lines) * NODE
        for j in range(4):
            yield MemOp(nonmem=10, vaddr=row + j * NODE,
                        is_write=(j >= 2), persistent=(j >= 2),
                        phase="rest")
            emitted += 1
            if emitted >= nops:
                return


def fio_write_trace(nops: int, footprint: int = 512 * MIB, seed: int = 0,
                    mkpt: bool = False, block: int = 4 * KIB
                    ) -> Iterator[MemOp]:
    """fio sequential-write: streams ``block``-sized sequential bursts."""
    lines_per_block = block // NODE
    nblocks = footprint // block
    emitted = 0
    cursor = 0
    while emitted < nops:
        base = (cursor % nblocks) * block
        cursor += 1
        for j in range(lines_per_block):
            yield MemOp(nonmem=4, vaddr=base + j * NODE, is_write=True,
                        persistent=True, phase="rest")
            emitted += 1
            if emitted >= nops:
                return


def hashmap_trace(nops: int, footprint: int = 128 * MIB, seed: int = 0,
                  mkpt: bool = False, nkeys: int = 60_000,
                  theta: float = 0.6) -> Iterator[MemOp]:
    """PMDK HashMap: bucket probe (dependent) then node update writes."""
    zipf = ZipfSampler(nkeys, theta=theta, seed=seed)
    emitted = 0
    while emitted < nops:
        key = zipf.sample()
        bucket, node = _persistent_chain(key, footprint, 2, "hashmap")
        for op in (MemOp(nonmem=10, vaddr=bucket, dependent=True,
                         mkpt=mkpt, next_vaddr=node, phase="read"),
                   MemOp(nonmem=6, vaddr=node, dependent=True, phase="read"),
                   MemOp(nonmem=6, vaddr=node, is_write=True,
                         persistent=True, phase="rest")):
            yield op
            emitted += 1
            if emitted >= nops:
                return


def linkedlist_trace(nops: int, nnodes: int = 8192, seed: int = 0,
                     mkpt: bool = False) -> Iterator[MemOp]:
    """PMDK LinkedList: repeated traversal of one persistent ring.

    Nodes are page-strided (one node per 4KB page, as pool allocators
    tend to produce for large objects), so the 32MB of touched pages
    blow out the 1536-entry STLB while the node lines themselves stay
    cache-resident — the access pattern where TLB misses, not data
    misses, dominate and Pre-translation shines (Fig. 13d/e).
    """
    rng = make_rng(seed, "linkedlist")
    order = list(range(nnodes))
    rng.shuffle(order)
    addrs = [n * PAGE for n in order]
    emitted = 0
    i = 0
    while emitted < nops:
        vaddr = addrs[i % nnodes]
        nxt = addrs[(i + 1) % nnodes]
        yield MemOp(nonmem=6, vaddr=vaddr, dependent=True,
                    mkpt=mkpt, next_vaddr=nxt, phase="read")
        emitted += 1
        i += 1


#: name -> generator registry used by the Figure 13 harness
CLOUD_WORKLOADS = {
    "fio-write": fio_write_trace,
    "ycsb": ycsb_trace,
    "tpcc": tpcc_trace,
    "hashmap": hashmap_trace,
    "redis": redis_trace,
    "linkedlist": linkedlist_trace,
}
