"""Golden digests of the attach port, the one caller of the event kernel.

A seeded mixed stream of reads, non-temporal stores, fences and
:meth:`AttachedMemory.issue` calls runs through an ``AttachedMemory``
port (``max_outstanding=16``) over ``vans``, ``pmep`` and
``memory-mode``.  The host drives the engine two ways when the port is
saturated: ``stepped`` fires one event at a time (``engine.step()``),
``drained`` runs the queue dry (``engine.run()``).  Between requests the
host sometimes idles with ``engine.run(until=now + gap)``.

The sha256 covers every callback's ``(label, engine.now,
req.complete_ps)``, the final clock, ``processed_events`` and the
port's ``stats.snapshot()``.  The digests were recorded from the
calendar-queue kernel, so a change of kernel cannot move a callback's
firing time or order.  Re-record only for a deliberate model change, by
running this file against that change's parent tree.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro import registry
from repro.common.rng import make_rng
from repro.common.units import MIB
from repro.engine.event import Engine
from repro.engine.request import Op, Request
from repro.vans.attach import AttachedMemory

N_REQUESTS = 3000
REGION = 16 * MIB
CASES = list(itertools.product(("vans", "pmep", "memory-mode"),
                               ("stepped", "drained")))

#: digests recorded from the calendar-queue kernel
GOLDEN = {
    "vans-stepped":
        "e9e4e562fc50ad938b36e702ab5e41e20e1f938f08a64b29d23d76a7dd7b9d06",
    "vans-drained":
        "871ecc3b4d2a6d8af7e6e3814071c7e38f73c7b04788bdfead11b76caa6d9bbf",
    "pmep-stepped":
        "d9be48a71bce056b9d6826f62cb7db913afd8257cc593339aebfb8007eece355",
    "pmep-drained":
        "b9796916637a86c32c572a380cea0512475a5529c1d4db285d164c4814cfe8e0",
    "memory-mode-stepped":
        "457311a5060a50bf3d747e42837f02acb5606356203f29f713a302a3c532d363",
    "memory-mode-drained":
        "a095d046e68726b7c79de0999ac6be36036aa36aa6c2aa4c02a0b68d2cc09313",
}


def _run(target: str, mode: str):
    """Drive the seeded stream; returns the port and the callback log."""
    engine = Engine()
    port = AttachedMemory(engine, registry.build(target), max_outstanding=16)
    rng = make_rng(18, "attach-golden")
    log = []

    def done(label):
        def cb(req: Request) -> None:
            log.append((label, engine.now, req.complete_ps))
        return cb

    for label in range(N_REQUESTS):
        while not port.can_accept():
            if mode == "stepped":
                engine.step()
            else:
                engine.run()
        kind = rng.random()
        addr = rng.randrange(REGION // 64) * 64
        if kind < 0.45:
            port.send(Request(addr=addr, op=Op.READ, issue_ps=engine.now),
                      done(label))
        elif kind < 0.75:
            port.send(Request(addr=addr, op=Op.WRITE_NT, issue_ps=engine.now),
                      done(label))
        elif kind < 0.80:
            port.send_fence(on_complete=done(label))
        else:
            port.issue(addr, Op.READ if kind < 0.90 else Op.WRITE_NT,
                       done(label))
        if rng.random() < 0.05:
            engine.run(until=engine.now + rng.randrange(2_000_000))
    engine.run()
    return port, log


def _digest(port: AttachedMemory, log) -> str:
    h = hashlib.sha256()
    h.update(repr(log).encode())
    h.update(repr((port.engine.now, port.engine.processed_events)).encode())
    h.update(repr(sorted(port.stats.snapshot().items())).encode())
    return h.hexdigest()


def _case_id(case) -> str:
    return "-".join(case)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_attach_stream_matches_golden_digest(case):
    port, log = _run(*case)
    assert len(log) == N_REQUESTS
    assert port.outstanding == 0
    assert _digest(port, log) == GOLDEN[_case_id(case)]


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{_case_id(case)}":\n        "{_digest(*_run(*case))}",')
