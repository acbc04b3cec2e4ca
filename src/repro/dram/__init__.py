"""DDR4 DRAM substrate.

Models DRAM at command level (ACT/PRE/RD/WR/REF with full timing
constraints).  Used in three places, mirroring the paper:

* the on-DIMM DDR4 DRAM that holds the Optane AIT table and AIT buffer,
* the DRAM-main-memory baseline system for the Figure 11 speedup ratios,
* the conventional-DRAM-architecture baselines (DRAMSim2/Ramulator-style).

The command stream each controller produces can be replayed through
:class:`~repro.dram.verifier.DDR4ProtocolChecker`, which plays the role
of Micron's Verilog verification model in Section IV-B.

The package re-exports nothing: import each name from the module that
defines it.
"""
