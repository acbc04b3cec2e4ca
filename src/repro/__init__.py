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
"""

# version first: submodules (telemetry.manifest) read it during import,
# possibly while this package is still partially initialized.
__version__ = "1.0.0"

from repro.target import TargetSystem
from repro.vans import VansConfig, VansSystem, MemoryModeSystem
from repro.vans.config import optane_config
from repro.reference import OptaneReference

__all__ = [
    "TargetSystem",
    "VansConfig",
    "VansSystem",
    "MemoryModeSystem",
    "optane_config",
    "OptaneReference",
    "__version__",
]
