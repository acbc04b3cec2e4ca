"""Memory footprint of the CPU model over one Table IV run.

One mcf ``FullSystem`` on ``ramulator-ddr4`` runs as Table IV runs it:
26,666 ``spec_trace`` ops, the first 6,666 of them warm-up.  It leaves
27,077 resident lines in 9,798 cache sets across L1, L2 and L3.  With
each set a plain ``dict`` the run holds ~4.24 MB (tracemalloc, CPython
3.11-3.13); with ``OrderedDict`` sets it held ~6.23 MB.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro import registry
from repro.cpu import FullSystem
from repro.workloads.spec import spec_trace

NOPS = 20_000
WARMUP = NOPS // 3
STATE_LIMIT_BYTES = 5_000_000


def _table4_system(name: str) -> FullSystem:
    return FullSystem(registry.build("ramulator-ddr4", frontend_ps=30_000),
                      name=name)


def _run_state_bytes(name: str) -> int:
    """Bytes still allocated, after the run, by building and running one
    Table IV system (the system is alive when they are counted)."""
    # load every lazily imported module before counting
    _table4_system(name).run(spec_trace(name, 100))
    gc.collect()
    tracemalloc.start()
    try:
        system = _table4_system(name)
        system.run(spec_trace(name, NOPS + WARMUP), warmup_ops=WARMUP)
        gc.collect()
        state = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert system.core.measured_instructions
    return state


def test_table4_mcf_run_state_fits_the_footprint():
    assert _run_state_bytes("mcf") <= STATE_LIMIT_BYTES
