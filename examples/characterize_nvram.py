#!/usr/bin/env python3
"""Reverse engineer an unknown NVRAM DIMM with LENS.

This is the paper's core workflow: point LENS at a memory system it has
never seen and recover the microarchitecture from latency patterns
alone.  Here the "unknown" device is a *non-default* VANS configuration
(different buffer sizes than Optane), so you can check LENS against the
planted ground truth — then run it on the PMEP emulator and watch it
(correctly) find no buffer hierarchy at all.

Run:  python examples/characterize_nvram.py
"""

from dataclasses import replace

from repro.baselines import PMEPModel
from repro.common.units import KIB, MIB, pretty_size
from repro.lens.probers.buffer import BufferProber
from repro.lens.report import characterize
from repro.media.wear import WearConfig
from repro.vans import VansConfig, VansSystem
from repro.vans.config import AitConfig, RmwConfig


def mystery_config() -> VansConfig:
    """A hypothetical next-gen DIMM: bigger RMW buffer, smaller AIT."""
    base = VansConfig()
    dimm = replace(
        base.dimm,
        rmw=RmwConfig(entries=128, entry_bytes=256),    # 32KB
        ait=AitConfig(entries=2048, entry_bytes=4096),  # 8MB
        wear=WearConfig(migrate_threshold=2000),
    )
    return replace(base, dimm=dimm)


def main() -> None:
    config = mystery_config()
    print("Characterizing a mystery NVRAM DIMM with LENS...\n")
    chara = characterize(
        lambda: VansSystem(config),
        interleaved_factory=lambda: VansSystem(config.with_dimms(6)),
        overwrite_iterations=config.dimm.wear.migrate_threshold * 4,
        tail_scan_bytes=config.dimm.wear.migrate_threshold * 384,
    )
    print(chara.render())

    truth = config.describe()
    truth["rmw_entry"] = config.dimm.rmw.entry_bytes
    truth["ait_entry"] = config.dimm.ait.entry_bytes
    verdicts = chara.compare_to_truth(truth)
    print("\nAgainst the planted ground truth:")
    for name, ok in verdicts.items():
        print(f"  {name:<14} {'recovered' if ok else 'MISSED'}")

    print("\nExpected: RMW 32K (not Optane's 16K), AIT 8M (not 16M).")

    print("\nNow LENS on the PMEP emulator (a slower DRAM):")
    report = BufferProber(lambda: PMEPModel()).run(probe_hierarchy=False)
    caps = [pretty_size(c) for c in report.read_capacities]
    print(f"  read-buffer inflections found: {caps or 'none'}")
    print("  -> PMEP has no on-DIMM buffer structure to discover, which")
    print("     is exactly why it mispredicts real NVRAM behaviour.")


if __name__ == "__main__":
    main()
