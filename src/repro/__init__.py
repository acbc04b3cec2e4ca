"""repro — reproduction of "Characterizing and Modeling Non-Volatile
Memory Systems" (MICRO 2020): the LENS profiler and the VANS simulator.

Public API tour:

* ``VansSystem`` / ``VansConfig`` — the validated Optane-DIMM simulator
  (App Direct mode); ``MemoryModeSystem`` for Memory mode.
* ``repro.lens`` — the LENS probers and microbenchmarks; run
  ``repro.lens.report.characterize(lambda: VansSystem())`` to reverse
  engineer a memory system from its performance patterns.
* ``repro.cpu.FullSystem`` — the trace-driven full-system harness
  (core + caches + TLBs over any memory backend).
* ``repro.baselines`` — PMEP / Quartz / DRAMSim2 / Ramulator-style
  models the paper compares against.
* ``repro.workloads`` — SPEC-calibrated and cloud workload generators.
* ``repro.optim`` — Pre-translation and Lazy cache.
* ``repro.experiments`` — one module per paper table/figure.

The package's own re-exports (``TargetSystem``, ``VansSystem``,
``VansConfig``, ``optane_config``, ``MemoryModeSystem``,
``OptaneReference``) resolve on first use (:mod:`repro._lazy`), so
``import repro`` alone loads no subsystem.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.target": ["TargetSystem"],
    "repro.vans.config": ["VansConfig", "optane_config"],
    "repro.vans.system": ["VansSystem"],
    "repro.vans.memory_mode": ["MemoryModeSystem"],
    "repro.reference.optane": ["OptaneReference"],
})
__all__.append("__version__")
