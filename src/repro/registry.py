"""Unified target registry: every memory system under test, by name.

Before this module existed each experiment hand-constructed its systems
(``VansSystem(VansConfig().with_dimms(6))``, ad-hoc wear-scaled configs,
baselines with tweaked frontends, ...).  The registry centralizes all of
that behind named, parameterized specs:

``build(name, **overrides)``
    Construct one system.  Overrides are spec-specific knobs — for the
    VANS family they map onto the :class:`~repro.vans.config.VansConfig`
    tree (``ndimms=6``, ``media_capacity=8*GIB``, ``lazy_cache=True``,
    ``migrate_threshold=300``, ``combine_window_ps=0``, ...), for the
    baselines they pass through to the model constructor
    (``frontend_ps=30_000``).

``factory(name, **overrides)``
    A zero-argument callable for harnesses that rebuild a fresh system
    per sweep point (LENS probers, latency sweeps).

Every system built here is announced to the active
:class:`~repro.instrument.Collection`, which is how the experiment
runner attaches a merged observability snapshot to every
:class:`~repro.experiments.common.ExperimentResult` without any
experiment threading stats plumbing by hand.

Unknown names raise :class:`~repro.common.errors.UnknownTargetError`
(a :class:`~repro.common.errors.ReproError`), which CLIs translate to
exit code 2.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional

from repro.baselines.pmep import PMEPModel
from repro.baselines.quartz import QuartzModel
from repro.baselines.slow_dram import (
    SlowDramSystem,
    dramsim2_ddr3,
    ramulator_ddr4,
    ramulator_pcm,
)
from repro.common.errors import UnknownOverrideError, UnknownTargetError
from repro.faults.injector import current as current_faults
from repro.flight.recorder import current as current_flight
from repro.instrument import announce
from repro.progress import current as current_progress
from repro.prof.profiler import current as current_prof
from repro.reference import OptaneReference
from repro.target import TargetSystem
from repro.telemetry.sampler import current as current_telemetry
from repro.vans.config import VansConfig
from repro.vans.memory_mode import MemoryModeSystem
from repro.vans.system import VansSystem


def _allowed_params(*callables: Callable[..., Any],
                    exclude: tuple = ()) -> FrozenSet[str]:
    """Union of named parameters across builder callables.

    ``**kwargs`` catch-alls are skipped (the callable they forward to is
    listed explicitly instead), so the resulting set is the exact
    spelling a caller may use — the basis for typo rejection.
    """
    allowed = set()
    for fn in callables:
        for p in inspect.signature(fn).parameters.values():
            if p.kind in (p.VAR_KEYWORD, p.VAR_POSITIONAL):
                continue
            if p.name == "self" or p.name in exclude:
                continue
            allowed.add(p.name)
    return frozenset(allowed)


@dataclass(frozen=True)
class TargetSpec:
    """One named target: a description plus a parameterized builder."""

    name: str
    description: str
    builder: Callable[..., Any]
    category: str = "baseline"   # "vans" | "baseline" | "reference"
    #: True when the builder returns a :class:`TargetSystem` (drivable by
    #: LENS / trace replay); the Optane reference model is analytic.
    is_system: bool = True
    defaults: Mapping[str, Any] = field(default_factory=dict)
    #: Exact override names :func:`build` accepts for this target.
    #: ``None`` disables validation (externally registered specs that
    #: never declared their surface).
    allowed: Optional[FrozenSet[str]] = None


_SPECS: Dict[str, TargetSpec] = {}


def register_target(spec: TargetSpec) -> TargetSpec:
    """Add (or replace) a spec; returns it for chaining."""
    _SPECS[spec.name] = spec
    return spec


def spec(name: str) -> TargetSpec:
    """Look up a spec; raises :class:`UnknownTargetError` if absent."""
    try:
        return _SPECS[name]
    except KeyError:
        raise UnknownTargetError(name, _SPECS) from None


def target_names(category: Optional[str] = None,
                 systems_only: bool = False) -> List[str]:
    """Sorted names, optionally filtered."""
    return sorted(
        s.name for s in _SPECS.values()
        if (category is None or s.category == category)
        and (not systems_only or s.is_system)
    )


def _validate_overrides(target_spec: TargetSpec,
                        overrides: Mapping[str, Any]) -> None:
    """Reject override kwargs the target's builder does not understand.

    Without this a typo like ``lazy_cahe=True`` silently builds the
    default system and the experiment quietly measures the wrong thing.
    """
    allowed = target_spec.allowed
    if allowed is None:
        return
    for key in overrides:
        if key not in allowed:
            raise UnknownOverrideError(target_spec.name, key, allowed)


def _attach_session(system: Any) -> Any:
    """Wire a freshly built system into the session.

    Announces to the active instrumentation Collection, sets the
    session's flight recorder, fault injector and tick sinks on the
    system's hooks, publishes fault counters, and wraps the system for
    the active host profiler.
    """
    announce(system)
    faults = current_faults()
    if isinstance(system, TargetSystem):
        # The sampler ticks before the reporter: progress frames are
        # advisory and never change the sampler's tick sequence.
        ticks = []
        for sink in (current_telemetry(), current_progress()):
            if sink.enabled:
                sink.attach(system)
                ticks.append(sink)
        system.hooks.set(current_flight(), faults, ticks)
    if (faults.enabled and not faults.published and not faults.plan.empty
            and isinstance(system, (VansSystem, MemoryModeSystem))):
        # Publish the injection counters onto the first VANS or Memory
        # Mode system only: merged collection snapshots sum per path
        # across systems, so a second registration would double-count
        # faults.  Empty plans publish nothing — their runs must stay
        # bit-identical to NULL_FAULTS runs (the zero-cost contract).
        faults.publish(system.stats)
    prof = current_prof()
    if prof.enabled and isinstance(system, TargetSystem):
        # The host profiler wraps last, over the class methods every run
        # executes; the session tear-down deletes the wrappers again.
        prof.instrument(system)
    return system


def build(name: str, **overrides: Any):
    """Construct the named target with per-call overrides.

    The built system is announced to the active instrumentation
    :class:`~repro.instrument.Collection` (if any).  Unknown override
    names raise :class:`~repro.common.errors.UnknownOverrideError`.
    Every call constructs a new system.
    """
    target_spec = spec(name)
    _validate_overrides(target_spec, overrides)
    kwargs = {**target_spec.defaults, **overrides}
    return _attach_session(target_spec.builder(**kwargs))


def factory(name: str, **overrides: Any) -> Callable[[], TargetSystem]:
    """A zero-arg constructor for ``build(name, **overrides)``.

    Validates the name and override spellings eagerly so a typo fails
    at wiring time, not in the middle of a sweep.
    """
    _validate_overrides(spec(name), overrides)
    return lambda: build(name, **overrides)


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def derive_vans_config(
    base: Optional[VansConfig] = None,
    *,
    ndimms: Optional[int] = None,
    interleaved: Optional[bool] = None,
    media_capacity: Optional[int] = None,
    lazy_cache: Optional[bool] = None,
    migrate_threshold: Optional[int] = None,
    combine_window_ps: Optional[int] = None,
    engine_holds_partial: Optional[bool] = None,
) -> VansConfig:
    """Apply flat override knobs onto a :class:`VansConfig` tree.

    Every knob an experiment used to hand-splice with nested
    ``dataclasses.replace`` calls is a named parameter here; ``None``
    means "keep the base value".
    """
    cfg = base or VansConfig()
    if ndimms is not None or interleaved is not None:
        cfg = cfg.with_dimms(
            cfg.ndimms if ndimms is None else ndimms, interleaved)
    if media_capacity is not None:
        cfg = cfg.with_media_capacity(media_capacity)
    if lazy_cache is not None:
        cfg = cfg.with_lazy_cache(lazy_cache)

    dimm = cfg.dimm
    if migrate_threshold is not None:
        dimm = replace(dimm, wear=replace(dimm.wear,
                                          migrate_threshold=migrate_threshold))
    if combine_window_ps is not None:
        dimm = replace(dimm, lsq=replace(dimm.lsq,
                                         combine_window_ps=combine_window_ps))
    if engine_holds_partial is not None:
        dimm = replace(dimm, timing=replace(
            dimm.timing, engine_holds_partial=engine_holds_partial))
    if dimm is not cfg.dimm:
        cfg = replace(cfg, dimm=dimm)
    return cfg


def _build_vans(config: Optional[VansConfig] = None,
                track_line_wear: bool = False,
                **config_overrides: Any) -> VansSystem:
    cfg = derive_vans_config(config, **config_overrides)
    return VansSystem(cfg, track_line_wear=track_line_wear)


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

#: ``_build_vans`` forwards its ``**config_overrides`` to
#: :func:`derive_vans_config`, so the valid surface is the union of both
#: signatures (minus the internal ``base`` positional).
_VANS_ALLOWED = _allowed_params(_build_vans, derive_vans_config,
                                exclude=("base",))
#: The DRAM-era baselines accept their model constructor's knobs.
_SLOWDRAM_ALLOWED = _allowed_params(SlowDramSystem.__init__,
                                    exclude=("timing", "name"))

register_target(TargetSpec(
    "vans", "validated Optane-DIMM model, App Direct mode (1 DIMM)",
    _build_vans, category="vans", allowed=_VANS_ALLOWED))
register_target(TargetSpec(
    "vans-6dimm", "6 interleaved Optane DIMMs (the paper's full system)",
    _build_vans, category="vans", defaults={"ndimms": 6},
    allowed=_VANS_ALLOWED))
register_target(TargetSpec(
    "vans-lazy", "VANS with the Section V-C Lazy cache enabled",
    _build_vans, category="vans", defaults={"lazy_cache": True},
    allowed=_VANS_ALLOWED))
register_target(TargetSpec(
    "memory-mode", "DRAM DIMMs as a direct-mapped cache over NVRAM",
    MemoryModeSystem, category="vans",
    allowed=_allowed_params(MemoryModeSystem.__init__)))
register_target(TargetSpec(
    "pmep", "PMEP delay-injection + bandwidth-throttle emulator",
    PMEPModel, allowed=_allowed_params(PMEPModel.__init__)))
register_target(TargetSpec(
    "quartz", "Quartz epoch-based delay-injection emulator",
    QuartzModel, allowed=_allowed_params(QuartzModel.__init__)))
register_target(TargetSpec(
    "dramsim2-ddr3", "DRAMSim2-style DDR3-1600 simulator",
    dramsim2_ddr3, allowed=_SLOWDRAM_ALLOWED))
register_target(TargetSpec(
    "ramulator-ddr4", "Ramulator-style DDR4-2666 simulator",
    ramulator_ddr4, allowed=_SLOWDRAM_ALLOWED))
register_target(TargetSpec(
    "ramulator-pcm", "Ramulator PCM plug-in (stretched DDR timings)",
    ramulator_pcm, allowed=_SLOWDRAM_ALLOWED))
register_target(TargetSpec(
    "optane-ref", "digitized Optane measurements (analytic reference)",
    OptaneReference, category="reference", is_system=False,
    allowed=_allowed_params(OptaneReference.__init__)))
