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

Every system built here gets a real :class:`~repro.instrument.InstrumentBus`
attached (pass ``instrument=False`` to opt out) and is announced to the
active :class:`~repro.instrument.Collection`, which is how the
experiment runner attaches a merged observability snapshot to every
:class:`~repro.experiments.common.ExperimentResult` without any
experiment threading stats plumbing by hand.

Unknown names raise :class:`~repro.common.errors.UnknownTargetError`
(a :class:`~repro.common.errors.ReproError`), which CLIs translate to
exit code 2.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.baselines.pmep import PMEPModel
from repro.baselines.quartz import QuartzModel
from repro.baselines.slow_dram import (
    SlowDramSystem,
    dramsim2_ddr3,
    ramulator_ddr4,
    ramulator_pcm,
)
from repro.common.errors import UnknownOverrideError, UnknownTargetError
from repro.faults.injector import NULL_FAULTS
from repro.faults.injector import current as current_faults
from repro.flight.recorder import NULL_FLIGHT
from repro.flight.recorder import current as current_flight
from repro.instrument import NULL_BUS, InstrumentBus, announce
from repro.progress import TelemetryFanout
from repro.progress import current as current_progress
from repro.prof.profiler import current as current_prof
from repro.prof.profiler import uninstrument as prof_uninstrument
from repro.reference import OptaneReference
from repro.target import TargetSystem
from repro.telemetry.sampler import current as current_telemetry
from repro.vans.config import VansConfig
from repro.vans.memory_mode import MemoryModeSystem
from repro.vans.system import VansSystem


def _allowed_params(*callables: Callable[..., Any],
                    exclude: tuple = (),
                    extra: tuple = ()) -> FrozenSet[str]:
    """Union of named parameters across builder callables.

    ``**kwargs`` catch-alls are skipped (the callable they forward to is
    listed explicitly instead), so the resulting set is the exact
    spelling a caller may use — the basis for typo rejection.
    """
    allowed = set(extra)
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
    """Wire a built (or warm-cache reused) system into the session.

    Announces to the active instrumentation Collection, attaches live
    telemetry instance-side, publishes fault counters, and wraps the
    system for the active host profiler.
    """
    announce(system)
    telemetry = current_telemetry()
    if telemetry.enabled and isinstance(system, TargetSystem):
        telemetry.attach(system)
        system.telemetry = telemetry
    progress = current_progress()
    if progress.enabled and isinstance(system, TargetSystem):
        # Progress rides the telemetry tick seam: the reporter (or a
        # fanout of sampler + reporter when both sessions are active)
        # is installed instance-side, so every completed request's
        # sim-time tick also advances the progress frames.  Frames are
        # advisory — the sampler still sees the identical tick
        # sequence, and release() pops the instance attribute, so
        # warm-cache eligibility and bit-identity are unaffected.
        progress.attach(system)
        if telemetry.enabled:
            system.telemetry = TelemetryFanout(telemetry, progress)
        else:
            system.telemetry = progress
    faults = current_faults()
    if faults.enabled and not faults.published and not faults.plan.empty:
        # Publish the injection counters onto the first instrumented
        # system only: merged collection snapshots sum per path across
        # systems, so a second registration would double-count faults.
        # Empty plans publish nothing — their runs must stay
        # bit-identical to NULL_FAULTS runs (the zero-cost contract).
        bus = getattr(system, "instrument", None)
        if isinstance(bus, InstrumentBus):
            faults.publish(bus)
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

    When the warm cache is enabled (:func:`enable_warm_cache`) and a
    previously :func:`release`-d system matches ``(name, overrides)``
    exactly, that system is reused instead of rebuilt — except under an
    active flight/fault session, whose sinks must be constructor-wired
    and therefore always force a fresh build.
    """
    target_spec = spec(name)
    _validate_overrides(target_spec, overrides)
    if (_WARM_LIMIT > 0 and not current_flight().enabled
            and not current_faults().enabled):
        key = _warm_key(name, overrides)
        if key is not None:
            parked = _WARM_CACHE.get(key)
            if parked:
                system = parked.pop()
                if not parked:
                    del _WARM_CACHE[key]
                _WARM_STATS["hits"] += 1
                return _attach_session(system)
            _WARM_STATS["misses"] += 1
    kwargs = {**target_spec.defaults, **overrides}
    system = target_spec.builder(**kwargs)
    if isinstance(system, TargetSystem):
        system._registry_key = _warm_key(name, overrides)
    return _attach_session(system)


def factory(name: str, **overrides: Any) -> Callable[[], TargetSystem]:
    """A zero-arg constructor for ``build(name, **overrides)``.

    Validates the name and override spellings eagerly so a typo fails
    at wiring time, not in the middle of a sweep.
    """
    _validate_overrides(spec(name), overrides)
    return lambda: build(name, **overrides)


# ----------------------------------------------------------------------
# warm target cache (build → acquire → run → reset → release)
# ----------------------------------------------------------------------
#
# Building a full VANS system is the dominant fixed cost of short served
# sessions: config-tree derivation, station wiring, AIT table setup.
# When serving many sessions against the same named targets the registry
# can park finished systems and hand them back out instead, relying on
# the ``TargetSystem.reset()`` lifecycle to restore as-built state.
#
# Eligibility is strict — only systems whose flight/fault sinks are the
# construction-time null objects may be parked, because real sinks are
# constructor-wired into subcomponents and cannot be detached by reset.
# Telemetry is attached instance-side, so release simply pops it.

_WARM_LIMIT = 0
_WARM_CACHE: Dict[Tuple[Any, ...], List[Any]] = {}
_WARM_STATS = {"hits": 0, "misses": 0, "parked": 0, "dropped": 0,
               "ineligible": 0}


def _warm_key(name: str, overrides: Mapping[str, Any]):
    """Cache key for (target, overrides); ``None`` if unhashable."""
    try:
        key = (name, tuple(sorted(overrides.items())))
        hash(key)
        return key
    except TypeError:
        return None


def enable_warm_cache(limit: int = 8) -> None:
    """Turn on warm-target reuse, parking at most ``limit`` systems."""
    global _WARM_LIMIT
    _WARM_LIMIT = max(0, int(limit))
    for k in _WARM_STATS:
        _WARM_STATS[k] = 0


def disable_warm_cache() -> None:
    """Turn off reuse and drop every parked system."""
    global _WARM_LIMIT
    _WARM_LIMIT = 0
    _WARM_CACHE.clear()


def warm_cache_enabled() -> bool:
    return _WARM_LIMIT > 0


def warm_cache_stats() -> Dict[str, int]:
    """Counters plus current occupancy (for /stats and tests)."""
    stats = dict(_WARM_STATS)
    stats["size"] = sum(len(v) for v in _WARM_CACHE.values())
    stats["limit"] = _WARM_LIMIT
    return stats


def acquire(name: str, **overrides: Any):
    """The warm-cache lifecycle spelling of :func:`build`.

    Reuses a parked system when one matches ``(name, overrides)``
    exactly, building fresh otherwise.  A reused system has been
    :meth:`~repro.target.TargetSystem.reset` and produces bit-identical
    results to a fresh build.  Pair with :func:`release` when the
    session is done with it.
    """
    return build(name, **overrides)


def release(system: Any) -> bool:
    """Return a system acquired via :func:`acquire`/:func:`build` to the
    warm cache.  Returns ``True`` if it was parked for reuse.

    Systems wired with real flight/fault sinks at construction are never
    parked (the sinks are threaded through subcomponent constructors and
    would leak into the next session); the cache is also bounded, so a
    full cache simply drops the system.
    """
    if _WARM_LIMIT <= 0 or not isinstance(system, TargetSystem):
        return False
    key = getattr(system, "_registry_key", None)
    if key is None:
        return False
    if system.flight is not NULL_FLIGHT or system.faults is not NULL_FAULTS:
        _WARM_STATS["ineligible"] += 1
        return False
    # Telemetry is attached instance-side by _attach_session; detach it
    # so the class-level NULL_TELEMETRY default shows through again.
    system.__dict__.pop("telemetry", None)
    # Likewise strip any host-profiler wrappers before parking, so a
    # reused system never times (or slows) a later unprofiled session.
    prof_uninstrument(system)
    system.reset()
    if sum(len(v) for v in _WARM_CACHE.values()) >= _WARM_LIMIT:
        _WARM_STATS["dropped"] += 1
        return False
    _WARM_CACHE.setdefault(key, []).append(system)
    _WARM_STATS["parked"] += 1
    return True


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def _bus(instrument: bool):
    return InstrumentBus() if instrument else NULL_BUS


def derive_vans_config(
    base: Optional[VansConfig] = None,
    *,
    ndimms: Optional[int] = None,
    interleaved: Optional[bool] = None,
    media_capacity: Optional[int] = None,
    lazy_cache: Optional[bool] = None,
    migrate_threshold: Optional[int] = None,
    wear_decay_window: Optional[int] = None,
    combine_window_ps: Optional[int] = None,
    engine_holds_partial: Optional[bool] = None,
    ddrt_detailed: Optional[bool] = None,
    table_cache_entries: Optional[int] = None,
    collect_latency_histograms: Optional[bool] = None,
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
    if migrate_threshold is not None or wear_decay_window is not None:
        wear = dimm.wear
        if migrate_threshold is not None:
            wear = replace(wear, migrate_threshold=migrate_threshold)
        if wear_decay_window is not None:
            wear = replace(wear, decay_window_writes=wear_decay_window)
        dimm = replace(dimm, wear=wear)
    if combine_window_ps is not None:
        dimm = replace(dimm, lsq=replace(dimm.lsq,
                                         combine_window_ps=combine_window_ps))
    if engine_holds_partial is not None or ddrt_detailed is not None:
        timing = dimm.timing
        if engine_holds_partial is not None:
            timing = replace(timing, engine_holds_partial=engine_holds_partial)
        if ddrt_detailed is not None:
            timing = replace(timing, ddrt_detailed=ddrt_detailed)
        dimm = replace(dimm, timing=timing)
    if table_cache_entries is not None:
        dimm = replace(dimm, ait=replace(dimm.ait,
                                         table_cache_entries=table_cache_entries))
    if dimm is not cfg.dimm:
        cfg = replace(cfg, dimm=dimm)
    if collect_latency_histograms is not None:
        cfg = replace(cfg, collect_latency_histograms=collect_latency_histograms)
    return cfg


def _build_vans(config: Optional[VansConfig] = None,
                track_line_wear: bool = False,
                instrument: bool = True,
                flight=None,
                faults=None,
                **config_overrides: Any) -> VansSystem:
    cfg = derive_vans_config(config, **config_overrides)
    return VansSystem(cfg, track_line_wear=track_line_wear,
                      instrument=_bus(instrument),
                      flight=flight if flight is not None else current_flight(),
                      faults=faults if faults is not None else current_faults())


def _build_memory_mode(instrument: bool = True, flight=None, faults=None,
                       **kwargs: Any) -> MemoryModeSystem:
    return MemoryModeSystem(
        instrument=_bus(instrument),
        flight=flight if flight is not None else current_flight(),
        faults=faults if faults is not None else current_faults(), **kwargs)


def _passthrough(builder: Callable[..., TargetSystem]):
    def _build(instrument: bool = True, **kwargs: Any) -> TargetSystem:
        # The DRAM-era baselines have no bus-wired internals; their
        # stats registries already feed instrument_snapshot().
        del instrument
        system = builder(**kwargs)
        flight = current_flight()
        if flight.enabled:
            # no internal stations, but submit() still records op-level
            # begin/complete so baselines appear in flight reports
            system.flight = flight
        faults = current_faults()
        if faults.enabled:
            system.faults = faults
        return system
    return _build


def _build_reference(**kwargs: Any) -> OptaneReference:
    return OptaneReference(**kwargs)


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

#: ``_build_vans`` forwards its ``**config_overrides`` to
#: :func:`derive_vans_config`, so the valid surface is the union of both
#: signatures (minus the internal ``base`` positional).
_VANS_ALLOWED = _allowed_params(_build_vans, derive_vans_config,
                                exclude=("base",))
_MEMMODE_ALLOWED = _allowed_params(_build_memory_mode,
                                   MemoryModeSystem.__init__)
#: The DRAM-era passthroughs accept their model constructor's knobs plus
#: the registry-level ``instrument`` opt-out.
_SLOWDRAM_ALLOWED = _allowed_params(SlowDramSystem.__init__,
                                    exclude=("timing", "name"),
                                    extra=("instrument",))

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
    _build_memory_mode, category="vans", allowed=_MEMMODE_ALLOWED))
register_target(TargetSpec(
    "pmep", "PMEP delay-injection + bandwidth-throttle emulator",
    _passthrough(PMEPModel),
    allowed=_allowed_params(PMEPModel.__init__, extra=("instrument",))))
register_target(TargetSpec(
    "quartz", "Quartz epoch-based delay-injection emulator",
    _passthrough(QuartzModel),
    allowed=_allowed_params(QuartzModel.__init__, extra=("instrument",))))
register_target(TargetSpec(
    "dramsim2-ddr3", "DRAMSim2-style DDR3-1600 simulator",
    _passthrough(dramsim2_ddr3), allowed=_SLOWDRAM_ALLOWED))
register_target(TargetSpec(
    "ramulator-ddr4", "Ramulator-style DDR4-2666 simulator",
    _passthrough(ramulator_ddr4), allowed=_SLOWDRAM_ALLOWED))
register_target(TargetSpec(
    "ramulator-pcm", "Ramulator PCM plug-in (stretched DDR timings)",
    _passthrough(ramulator_pcm), allowed=_SLOWDRAM_ALLOWED))
register_target(TargetSpec(
    "optane-ref", "digitized Optane measurements (analytic reference)",
    _build_reference, category="reference", is_system=False,
    allowed=_allowed_params(OptaneReference.__init__)))
