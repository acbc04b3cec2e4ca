"""The plain-dict LRU walk against the ``OrderedDict`` walk it replaced.

``CacheHierarchy.access`` keeps each set as a plain ``dict`` whose
insertion order is its LRU order: a lookup pops the tag, a hit
re-inserts it (with ``dirty or is_write``) and the first tag is the
victim.  :func:`_reference_access` is the walk it replaced, over
``OrderedDict`` sets with ``move_to_end`` and ``popitem(last=False)``.
Twin hierarchies on ``test_cache.py``'s tiny geometry, where addresses
``SET_STRIDE`` apart share their set in all three levels, run one seeded
stream of hot lines, conflict sweeps and random lines with 40% writes.
After every access they must agree on the returned level, cycles and
victims, on every set's tags and dirty bits in LRU order, and on every
counter.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from typing import List

from repro.common.rng import make_rng
from repro.common.units import KIB
from repro.cpu.cache import CacheHierarchy
from tests.test_cache import SET_STRIDE, small_hierarchy

N_ACCESSES = 20_000
WRITE_FRACTION = 0.4


def _reference_access(h: CacheHierarchy, addr: int, is_write: bool):
    """The ``OrderedDict`` walk: ``move_to_end`` on a hit, the victim
    is ``popitem(last=False)``."""
    tag = addr >> 6
    l1 = h.l1
    set1 = l1._sets[tag & l1._mask]
    if tag in set1:
        set1.move_to_end(tag)
        if is_write:
            set1[tag] = True
        l1._hits.value += 1
        return "l1", h._l1_cycles, []
    l1._misses.value += 1
    l2 = h.l2
    l3 = h.l3
    sets2 = l2._sets
    sets3 = l3._sets
    set2 = sets2[tag & l2._mask]
    l2_hit = tag in set2
    if l2_hit:
        set2.move_to_end(tag)
        l2._hits.value += 1
    else:
        l2._misses.value += 1
        set3 = sets3[tag & l3._mask]
        l3_hit = tag in set3
        if l3_hit:
            set3.move_to_end(tag)
            l3._hits.value += 1
        else:
            l3._misses.value += 1
    victims: List[int] = []
    if len(set1) >= l1._ways:
        vtag, dirty = set1.popitem(False)
        if dirty:
            l1._writebacks.value += 1
            vset = sets2[vtag & l2._mask]
            if vtag not in vset:
                vset = sets3[vtag & l3._mask]
            if vtag in vset:
                vset[vtag] = True
            else:
                victims.append(vtag << 6)
    set1[tag] = is_write
    if l2_hit:
        return "l2", h._l2_cycles, victims
    if len(set2) >= l2._ways:
        vtag, dirty = set2.popitem(False)
        if dirty:
            l2._writebacks.value += 1
            vset = sets3[vtag & l3._mask]
            if vtag in vset:
                vset[vtag] = True
            else:
                victims.append(vtag << 6)
    set2[tag] = False
    if l3_hit:
        return "l3", h._l3_cycles, victims
    if len(set3) >= l3._ways:
        vtag, dirty = set3.popitem(False)
        if dirty:
            l3._writebacks.value += 1
            victims.append(vtag << 6)
    set3[tag] = False
    return "mem", h._l3_cycles, victims


def _reference_hierarchy() -> CacheHierarchy:
    h = small_hierarchy()
    for cache in (h.l1, h.l2, h.l3):
        cache._sets = defaultdict(OrderedDict)
    return h


def _sets(h: CacheHierarchy):
    """Every level's sets in creation order, each as its (tag, dirty)
    pairs in LRU order."""
    return [[(index, list(cset.items())) for index, cset in cache._sets.items()]
            for cache in (h.l1, h.l2, h.l3)]


def _stream():
    """Seeded (addr, is_write) pairs: a few hot lines, sweeps of 10
    lines over one set of every level (more than its 4 ways), and random
    lines over 64 KiB."""
    rng = make_rng(27, "cache-reference")
    hot = [k * SET_STRIDE + 64 * s for k in range(3) for s in (0, 5)]
    sweep_set = 0
    sweep_pos = 0
    for _ in range(N_ACCESSES):
        kind = rng.random()
        if kind < 0.35:
            addr = rng.choice(hot)
        elif kind < 0.7:
            addr = sweep_pos * SET_STRIDE + 64 * sweep_set
            sweep_pos += 1
            if sweep_pos == 10:
                sweep_pos = 0
                sweep_set = rng.randrange(4)
        else:
            addr = rng.randrange(64 * KIB) & ~63
        yield addr, rng.random() < WRITE_FRACTION


def test_dict_walk_matches_the_ordered_dict_walk():
    h = small_hierarchy()
    ref = _reference_hierarchy()
    levels = {"l1": 0, "l2": 0, "l3": 0, "mem": 0}
    victims = 0
    for i, (addr, is_write) in enumerate(_stream()):
        got = h.access(addr, is_write)
        want = _reference_access(ref, addr, is_write)
        assert got == want, (i, addr, is_write)
        assert _sets(h) == _sets(ref), (i, addr, is_write)
        assert h.stats.snapshot() == ref.stats.snapshot(), i
        levels[got[0]] += 1
        victims += len(got[2])
    # the stream hits in every level, and every level evicts dirty lines
    assert all(levels.values()), levels
    assert victims
    snap = h.stats.snapshot()
    assert snap["T.writebacks"] and snap["T2.writebacks"]
    assert snap["T3.writebacks"]
