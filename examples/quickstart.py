#!/usr/bin/env python3
"""Quickstart: build a VANS Optane-DIMM system, poke it, watch the
on-DIMM buffer tiers appear.

Run:  python examples/quickstart.py
"""

from repro import VansConfig, VansSystem
from repro.common.rng import make_rng
from repro.common.units import KIB, MIB, NS, pretty_size


def pointer_chase(system: VansSystem, region: int, accesses: int = 1500,
                  seed: int = 1) -> float:
    """Average dependent-read latency over a random region (ns/line)."""
    rng = make_rng(seed, f"quickstart-{region}")
    system.warm_fill(0, region)  # steady-state buffer contents
    lines = region // 64
    now = 0
    total = 0
    for _ in range(accesses):
        done = system.read(rng.randrange(lines) * 64, now)
        total += done - now
        now = done
    return total / accesses / NS


def main() -> None:
    config = VansConfig()
    print("Simulated Optane DIMM configuration:")
    for key, value in config.describe().items():
        print(f"  {key:<18} {value}")

    print("\nPointer-chasing read latency (the Fig. 1b/5a curve):")
    print(f"  {'region':>8}  latency")
    for region in (1 * KIB, 4 * KIB, 16 * KIB, 64 * KIB, 1 * MIB,
                   16 * MIB, 64 * MIB):
        lat = pointer_chase(VansSystem(config), region)
        bar = "#" * int(lat / 12)
        print(f"  {pretty_size(region):>8}  {lat:6.1f} ns  {bar}")
    print("\nThe jumps past 16K and 16M are the RMW buffer (16KB SRAM)")
    print("and AIT buffer (16MB on-DIMM DRAM) overflowing.")

    print("\nStore accept latency (WPQ at 512B, LSQ at 4KB):")
    for region in (256, 1 * KIB, 4 * KIB, 16 * KIB, 64 * KIB):
        system = VansSystem(config)
        lines = list(range(region // 64))
        rng = make_rng(2, f"st-{region}")
        now, total, count = 0, 0, 0
        while count < 1200:
            rng.shuffle(lines)
            for line in lines:
                accept = system.write(line * 64, now)
                total += accept - now
                now = accept
                count += 1
            now = system.fence(now)
        lat = total / count / NS
        print(f"  {pretty_size(region):>8}  {lat:6.1f} ns")

    print("\nInternal counters after those runs:")
    interesting = ("dimm.rmw_hits", "dimm.rmw_misses", "dimm.ait_misses",
                   "dimm.combined_write_ops", "dimm.partial_write_ops")
    counters = system.instrument_snapshot()
    for key in interesting:
        print(f"  {key:<26} {counters.get(key, 0)}")


if __name__ == "__main__":
    main()
