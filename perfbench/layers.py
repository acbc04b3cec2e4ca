"""Traced-run instrumentation: host self time, calls and counts per layer.

``run_experiment(prof=...)`` already wraps the stations a target system
names in its ``profile_points()`` (VANS system, iMC/DDR-T, DIMM, AIT,
media, wear leveler, baselines).  :class:`Tracer` adds, from outside the
program, ``Profiler.wrap`` frames over the layers those points cannot
see: the CPU core/cache/TLB model, the trace generators, the DRAM
device and the LENS microbenchmarks.  It also counts requests once, at
the outermost ``read``/``write``/``write_nt``/``fence`` call on every
registry-built :class:`~repro.target.TargetSystem`.

Every profiler key must fall into exactly one layer of :data:`LAYERS`;
a key that matches none (or several) fails the traced run, so a new
station cannot silently land in the wrong bucket.
"""

from __future__ import annotations

import inspect
import re
import sys
import time
from typing import Any, Callable, Dict, List, Mapping, Tuple

from repro import registry
from repro.baselines.pmep import PMEPModel
from repro.baselines.slow_dram import SlowDramSystem
from repro.cpu.cache import CacheHierarchy
from repro.cpu.core import TraceCore
from repro.cpu.system import FullSystem
from repro.cpu.tlb import TlbHierarchy
from repro.dram.device import DramDevice
from repro.lens import analysis as lens_analysis
from repro.lens.microbench.overwrite import Overwrite, OverwriteResult
from repro.lens.microbench.pointer_chasing import PointerChasing
from repro.lens.microbench.stride import Stride
from repro.prof import Profiler
from repro.target import TargetSystem
from repro.vans.system import VansSystem
from repro.workloads import cloud, spec

#: layer -> the profiler keys it owns (full-match regex)
LAYERS: Dict[str, str] = {
    "harness": r"harness",
    "lens": r"lens\..+",
    "cpu.core": r"cpu\.core\..+",
    "cpu.cache": r"cpu\.cache\..+",
    "cpu.tlb": r"cpu\.tlb\..+",
    "workloads": r"workloads\..+",
    "baselines.pmep": r"pmep\..+",
    "baselines.slow_dram": r"(ramulator-ddr4|ramulator-pcm|dramsim2-ddr3)\..+",
    "dram": r"dram\..+",
    "vans": r"vans\.(read|write|fence)",
    "vans.imc": r"(imc|ddrt)\..+",
    "vans.dimm": r"(dimm|lazy)\..+",
    "vans.ait": r"ait\..+",
    "media": r"media\..+",
    "media.wear": r"wear\..+",
}

#: layers whose call counts are reported (``<layer>.calls``)
CALL_LAYERS = ("lens", "cpu.cache", "cpu.tlb", "dram", "vans.ait", "media")

#: request counts by target family (``<family>.requests``)
FAMILIES: Tuple[Tuple[str, type], ...] = (
    ("baselines.pmep", PMEPModel),
    ("baselines.slow_dram", SlowDramSystem),
    ("vans", VansSystem),
)

#: class-level wraps: (profiler key, class, method)
CLASS_POINTS: List[Tuple[str, type, str]] = [
    ("cpu.core.run", FullSystem, "run"),
    ("cpu.core.execute", TraceCore, "execute"),
    ("cpu.cache.access", CacheHierarchy, "access"),
    ("cpu.tlb.translate", TlbHierarchy, "translate"),
    ("cpu.tlb.install", TlbHierarchy, "install"),
    ("dram.access", DramDevice, "access"),
    ("dram.access_block", DramDevice, "access_block"),
] + [
    (f"lens.{cls.__name__}.{name}", cls, name)
    for cls in (PointerChasing, Stride, Overwrite, OverwriteResult)
    for name, fn in vars(cls).items()
    if inspect.isfunction(fn) and not name.startswith("_")
]

_REQUEST_METHODS = ("read", "write", "write_nt", "fence")


def layer_of(key: str) -> str:
    """The one layer owning ``key``; raises ``ValueError`` otherwise."""
    owners = [layer for layer, pattern in LAYERS.items()
              if re.fullmatch(pattern, key)]
    if len(owners) != 1:
        raise ValueError(f"profiler key {key!r} matches layers {owners}; "
                         f"it must match exactly one of {sorted(LAYERS)}")
    return owners[0]


def _public_functions(module: Any) -> List[Tuple[str, Any]]:
    """``(name, function)`` for each public function ``module`` defines."""
    return [(name, fn) for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")]


def _rebind(old: Any, new: Any) -> List[Tuple[Any, str]]:
    """Point every ``repro`` module attribute bound to ``old`` at ``new``
    (``from x import f`` copies included); returns what it changed."""
    changed = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                changed.append((module, attr))
    return changed


class _TimedTrace:
    """Iterator proxy timing each ``next()`` of a trace generator."""

    __slots__ = ("_it", "_prof", "_key", "_ops")

    def __init__(self, it, prof: Profiler, key: str, ops: List[int]) -> None:
        self._it = it
        self._prof = prof
        self._key = key
        self._ops = ops

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._prof.push(self._key)
        try:
            op = next(self._it)
        finally:
            self._prof.pop(frame)
        self._ops[0] += 1
        return op


class Tracer:
    """One traced experiment run (see module docstring)."""

    def __init__(self) -> None:
        self.prof = Profiler()
        self.wall_s = 0.0
        #: target name -> outermost requests
        self.requests: Dict[str, int] = {}
        #: target name -> family label (see :data:`FAMILIES`)
        self.family: Dict[str, str] = {}
        self.trace_ops = [0]
        self.dram_devices: List[DramDevice] = []
        self._depth = [0]
        self._undo: List[Callable[[], None]] = []

    # -- installation ---------------------------------------------------

    def _patch_class(self, cls: type, name: str, fn: Any) -> None:
        old = cls.__dict__[name]
        setattr(cls, name, fn)
        self._undo.append(lambda: setattr(cls, name, old))

    def _patch_function(self, old: Any, new: Any) -> None:
        changed = _rebind(old, new)
        self._undo.append(
            lambda: [setattr(m, a, old) for m, a in changed])

    def _timed_generator(self, key: str, gen_fn: Callable) -> Callable:
        prof, ops = self.prof, self.trace_ops

        def traced(*args: Any, **kwargs: Any) -> _TimedTrace:
            return _TimedTrace(gen_fn(*args, **kwargs), prof, key, ops)
        return traced

    def _counted(self, system: TargetSystem) -> None:
        """Count outermost request calls on one built system."""
        name = system.name
        self.requests.setdefault(name, 0)
        self.family[name] = next(
            (label for label, cls in FAMILIES if isinstance(system, cls)),
            name)
        depth, requests = self._depth, self.requests
        for method in _REQUEST_METHODS:
            fn = getattr(system, method, None)
            if fn is None:
                continue

            def counted(*args: Any, _fn=fn, **kwargs: Any) -> Any:
                if depth[0]:
                    return _fn(*args, **kwargs)
                depth[0] = 1
                try:
                    return _fn(*args, **kwargs)
                finally:
                    depth[0] = 0
                    requests[name] += 1
            system.__dict__[method] = counted

    def install(self) -> None:
        prof = self.prof
        for key, cls, name in CLASS_POINTS:
            self._patch_class(cls, name, prof.wrap(key, cls.__dict__[name]))
        for name, fn in _public_functions(lens_analysis):
            self._patch_function(fn, prof.wrap(f"lens.analysis.{name}", fn))
        for module in (spec, cloud):
            for name, fn in _public_functions(module):
                if inspect.isgeneratorfunction(fn):
                    self._patch_function(fn, self._timed_generator(
                        f"workloads.{name}", fn))

        devices = self.dram_devices
        dram_init = DramDevice.__init__

        def tracked_init(dev: DramDevice, *args: Any, **kwargs: Any) -> None:
            dram_init(dev, *args, **kwargs)
            devices.append(dev)
        self._patch_class(DramDevice, "__init__", tracked_init)

        build = registry.build

        def counting_build(*args: Any, **kwargs: Any) -> Any:
            system = build(*args, **kwargs)
            if isinstance(system, TargetSystem):
                self._counted(system)
            return system
        self._patch_function(build, counting_build)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def run(self, run_experiment: Callable, *args: Any) -> Any:
        """``run_experiment(*args, prof=...)`` under every wrapper, timed
        as the root ``harness`` frame."""
        self.install()
        try:
            t0 = time.perf_counter()
            with self.prof.frame("harness"):
                results = run_experiment(*args, prof=self.prof)
            self.wall_s = time.perf_counter() - t0
        finally:
            self.uninstall()
        return results

    # -- report ---------------------------------------------------------

    def report(self, snapshot: Mapping[str, float]) -> Dict[str, Any]:
        """Per-layer metrics (unit-free numbers) plus the raw breakdowns.

        ``snapshot`` is the run's merged instrumentation snapshot, the
        source of the simulated counts.
        """
        frames = self.prof.to_dict()["frames"]
        self_ns = dict.fromkeys(LAYERS, 0)
        calls = dict.fromkeys(LAYERS, 0)
        for key, frame in frames.items():
            layer = layer_of(key)
            self_ns[layer] += frame["self_ns"]
            calls[layer] += frame["calls"]

        metrics: Dict[str, float] = {
            f"{layer}.self_s": ns / 1e9 for layer, ns in self_ns.items()}
        metrics.update({f"{layer}.calls": calls[layer]
                        for layer in CALL_LAYERS})
        metrics["workloads.ops"] = self.trace_ops[0]
        for label, _cls in FAMILIES:
            metrics[f"{label}.requests"] = sum(
                n for name, n in self.requests.items()
                if self.family[name] == label)
        metrics["requests"] = sum(self.requests.values())

        def total(pattern: str) -> float:
            return sum(v for k, v in snapshot.items() if re.fullmatch(pattern, k))

        def ratio(hits: float, misses: float) -> float:
            return hits / (hits + misses) if hits + misses else 0.0

        row_hits = sum(d.stats.counter("dram.row_hits").value
                       for d in self.dram_devices)
        row_misses = sum(d.stats.counter("dram.row_misses").value
                         for d in self.dram_devices)
        metrics["dram.row_hit_ratio"] = ratio(row_hits, row_misses)
        metrics["vans.imc.wpq_blocked_ps"] = total(
            r"imc\.channel\d+\.wpq\.blocked_ps")
        metrics["vans.imc.rpq_blocked_ps"] = total(
            r"imc\.channel\d+\.rpq\.blocked_ps")
        metrics["vans.dimm.rmw_hit_ratio"] = ratio(
            total(r"dimm\.rmw_hits"), total(r"dimm\.rmw_misses"))
        metrics["vans.dimm.write_combine_ratio"] = ratio(
            total(r"dimm\.combined_write_ops"), total(r"dimm\.partial_write_ops"))
        metrics["vans.ait.hit_ratio"] = ratio(
            total(r"dimm\.ait_hits"), total(r"dimm\.ait_misses"))
        metrics["media.wear.migrations"] = total(r"wear\.migrations")
        metrics["media.wear.stall_ps"] = total(r"wear\.stall_ps")
        # share of traced wall time some layer other than the harness claims
        metrics["trace.coverage"] = (
            sum(self_ns.values()) - self_ns["harness"]) / 1e9 / self.wall_s
        return {
            "metrics": metrics,
            "requests_by_target": dict(sorted(self.requests.items())),
            "frames": frames,
        }
