"""VANS — Validated NVRAM Simulator.

Models the Optane DIMM microarchitecture the paper characterizes with
LENS (Figure 8):

* iMC with a read pending queue and an ADR-protected 512B write pending
  queue per channel, plus 4KB multi-DIMM interleaving;
* on-DIMM LSQ (64 x 64B) performing write combining to 256B;
* 16KB SRAM RMW buffer (64 x 256B entries) doing read-modify-write for
  sub-256B stores;
* AIT: a DRAM-resident address-indirection table plus a 16MB (4096 x
  4KB) AIT data buffer in on-DIMM DDR4 DRAM;
* 3D-XPoint media (256B granularity) behind a 64KB-block wear-leveler;
* FCFS internal scheduling and a request/grant iMC<->DIMM protocol.

The top-level entry point is :class:`~repro.vans.system.VansSystem`.

The names re-exported here load their submodule on first use
(:mod:`repro._lazy`): building a VANS system never imports the
functional model, the attach port or the tracing proxy.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.vans.config": [
        "VansConfig", "DimmConfig", "LsqConfig", "RmwConfig", "AitConfig",
        "WpqConfig", "TimingConfig"],
    "repro.vans.dimm": ["NvramDimm"],
    "repro.vans.imc": ["IntegratedMemoryController"],
    "repro.vans.interleave": ["Interleaver"],
    "repro.vans.system": ["VansSystem"],
    "repro.vans.memory_mode": ["MemoryModeSystem"],
    "repro.vans.functional": ["FunctionalMemory"],
    "repro.vans.attach": ["AttachedMemory"],
    "repro.vans.tracing": ["TraceRecord", "TracingProxy", "replay"],
})
