"""The fault injector: plan-driven hooks on the simulated hardware.

* :data:`NULL_FAULTS` is the no-op default in every system's
  :class:`~repro.hooks.Hooks` bundle; stations call its hooks only
  behind the bundle's one ``hooks.on`` check per hook point;
* a real :class:`FaultInjector` is built from a
  :class:`~repro.faults.plan.FaultPlan` and installed for a run via
  :func:`session`; the target registry sets the active injector on the
  hooks of every system it builds, which every station of that system
  shares (iMC, DDR-T channels, DIMM pipeline, media, wear leveler);
* an injector built from an **empty plan** returns zero from every
  latency hook and triggers nothing, so its runs are bit-identical to
  :data:`NULL_FAULTS` runs (the zero-cost contract, tested);
* everything the injector decides is a pure function of the plan and
  simulated time / request ordinals — no wall clock, no unseeded
  randomness — so fault runs are as reproducible as clean ones.

Hook inventory (what calls what):

====================  ===================================================
component             hooks
====================  ===================================================
iMC read/write        ``on_request`` (request-count triggers),
                      ``note_write`` (persistence history)
baseline requests     ``on_request`` (read/write, PMEP ``write_nt``)
iMC / DDR-T link      ``link_extra_ps`` (stuck/slow link episodes)
iMC fence path        ``note_fence``
3D-XPoint media       ``media_extra_ps`` (latency spikes + UE retries)
wear leveler          ``migration_extra_ps`` (stretched migrations)
Lazy cache (DIMM)     ``note_lazy_absorb`` / ``note_lazy_writeback``
stream driver         ``note_store`` / ``flush_scope`` (cached stores,
                      cache-line flushes)
====================  ===================================================
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional

from repro.common.session import SessionStack
from repro.flight.recorder import current as current_flight

if TYPE_CHECKING:
    from repro.faults.persistence import PersistenceChecker
    from repro.faults.plan import FaultPlan, FaultSpec


class NullFaultInjector:
    """No-op injector: the default in every system's hooks."""

    __slots__ = ()

    enabled = False

    def on_request(self, now: int) -> None:
        pass

    def media_extra_ps(self, addr: int, is_write: bool, now: int,
                       service_ps: int) -> int:
        return 0

    def link_extra_ps(self, channel: int, now: int, service_ps: int) -> int:
        return 0

    def migration_extra_ps(self, now: int, base_ps: int) -> int:
        return 0

    def note_write(self, addr: int, issue_ps: int, accept_ps: int) -> None:
        pass

    def note_store(self, addr: int, t: int) -> None:
        pass

    def note_fence(self, done_ps: int) -> None:
        pass

    @contextmanager
    def flush_scope(self) -> Iterator[None]:
        yield

    def note_lazy_absorb(self, addr: int, now: int) -> None:
        pass

    def note_lazy_writeback(self, addr: int, now: int) -> None:
        pass


#: shared no-op injector; holds no state, safe to pass around.
NULL_FAULTS = NullFaultInjector()


class _Episode(NamedTuple):
    """One resolved latency episode on a timeline."""

    start_ps: int
    end_ps: Optional[int]      # None = never ends
    extra_ps: int
    factor: float
    channel: Optional[int]     # link episodes only (None = all)

    def active(self, now: int) -> bool:
        return now >= self.start_ps and (self.end_ps is None
                                         or now < self.end_ps)

    def stretch(self, service_ps: int) -> int:
        return self.extra_ps + int(service_ps * (self.factor - 1.0))


class _UeRegion(NamedTuple):
    """A media address range gone uncorrectable from ``start_ps`` on."""

    start_ps: int
    addr_lo: int
    addr_hi: int
    extra_ps: int


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against the running simulation.

    Args:
        plan: the fault schedule.  Specs with ``at_request`` triggers
            are armed by :meth:`on_request`; time-triggered specs are
            resolved lazily by comparing timestamps (no event needed).
        checker: optional :class:`PersistenceChecker` fed by the
            ``note_*`` hooks; required to audit power cuts.
    """

    enabled = True

    def __init__(self, plan: FaultPlan,
                 checker: Optional[PersistenceChecker] = None) -> None:
        self.plan = plan
        self.checker = checker
        self.requests = 0
        #: highest simulated time any hook has observed
        self.horizon_ps = 0
        #: resolved power-cut time (set at construction for ``at_ps``
        #: cuts, when the request counter trips for ``at_request`` cuts)
        self.cut_ps: Optional[int] = None
        self._cut_request: Optional[int] = None
        self._media_episodes: List[_Episode] = []
        self._link_episodes: List[_Episode] = []
        self._ue_regions: List[_UeRegion] = []
        self.counters: Dict[str, int] = {
            "power_cuts": 0,
            "ue_hits": 0,
            "media_slow_hits": 0,
            "link_slow_hits": 0,
            "injected_ps": 0,
        }
        #: True once :meth:`publish` has registered this injector's
        #: gauges — the registry publishes onto the *first* VANS or
        #: Memory Mode system only, so merged collection snapshots
        #: (which sum per path across systems) count each fault once.
        self.published = False
        #: fault kinds already marked on the flight timeline (each kind
        #: gets one instant at its first manifestation, not per hit)
        self._announced: set = set()
        #: >0 while inside :meth:`flush_scope` — write completions are
        #: then recorded as cache-line flushes, not WPQ acknowledgements
        self._flush_depth = 0
        for spec in plan.specs:
            self._arm(spec)

    def _instant(self, name: str, ts_ps: int, **detail) -> None:
        """Drop a one-shot instant on the active flight recorder so the
        injected episode is visible in breakdowns and Chrome traces.

        The recorder only records inside an open (sampled) request, so
        the marker is armed until the first manifestation that lands on
        a recorded request — a fault tripping during a sampled-out
        request doesn't burn the one shot.
        """
        if name in self._announced:
            return
        fl = current_flight()
        if not fl.active:
            return
        self._announced.add(name)
        fl.instant("faults", name, ts_ps, **detail)

    def _arm(self, spec: FaultSpec) -> None:
        start = spec.at_ps if spec.at_ps is not None else 0
        end = (start + spec.duration_ps) if spec.duration_ps else None
        if spec.kind == "power_cut":
            if spec.at_ps is not None:
                # keep the earliest cut if a plan schedules several
                if self.cut_ps is None or spec.at_ps < self.cut_ps:
                    self.cut_ps = spec.at_ps
                    self.counters["power_cuts"] += 1
            else:
                if self._cut_request is None or \
                        spec.at_request < self._cut_request:
                    self._cut_request = spec.at_request
        elif spec.kind == "media_ue":
            self._ue_regions.append(_UeRegion(
                start, spec.addr_lo, spec.addr_hi, spec.extra_ps))
        elif spec.kind == "media_slow":
            self._media_episodes.append(_Episode(
                start, end, spec.extra_ps, spec.factor, None))
        elif spec.kind == "link_degrade":
            self._link_episodes.append(_Episode(
                start, end, spec.extra_ps, spec.factor, spec.channel))

    # -- trigger hooks ------------------------------------------------

    def on_request(self, now: int) -> None:
        """Count one memory request; arms request-ordinal triggers."""
        self.requests += 1
        if now > self.horizon_ps:
            self.horizon_ps = now
        if (self._cut_request is not None and self.cut_ps is None
                and self.requests >= self._cut_request):
            self.cut_ps = now
            self.counters["power_cuts"] += 1
        if self.cut_ps is not None:
            self._instant("power_cut", self.cut_ps)

    # -- latency hooks --------------------------------------------------

    def media_extra_ps(self, addr: int, is_write: bool, now: int,
                       service_ps: int) -> int:
        """Extra picoseconds for one media access at ``now``."""
        extra = 0
        for episode in self._media_episodes:
            if episode.active(now):
                extra += episode.stretch(service_ps)
                self.counters["media_slow_hits"] += 1
                self._instant("media_slow", now)
        if not is_write:
            for region in self._ue_regions:
                if now >= region.start_ps and \
                        region.addr_lo <= addr < region.addr_hi:
                    extra += region.extra_ps
                    self.counters["ue_hits"] += 1
                    self._instant("media_ue", now, addr=addr)
        if extra:
            self.counters["injected_ps"] += extra
        return extra

    def link_extra_ps(self, channel: int, now: int, service_ps: int) -> int:
        """Extra picoseconds for one DDR-T hop on ``channel``."""
        extra = 0
        for episode in self._link_episodes:
            if episode.active(now) and (episode.channel is None
                                        or episode.channel == channel):
                extra += episode.stretch(service_ps)
                self.counters["link_slow_hits"] += 1
                self._instant("link_degrade", now, channel=channel)
        if extra:
            self.counters["injected_ps"] += extra
        return extra

    def migration_extra_ps(self, now: int, base_ps: int) -> int:
        """Extra picoseconds for a wear migration starting at ``now``
        (media-latency episodes stretch block copies too)."""
        extra = 0
        for episode in self._media_episodes:
            if episode.active(now):
                extra += episode.stretch(base_ps)
        if extra:
            self.counters["injected_ps"] += extra
        return extra

    # -- persistence-history hooks ---------------------------------------

    def note_write(self, addr: int, issue_ps: int, accept_ps: int) -> None:
        if accept_ps > self.horizon_ps:
            self.horizon_ps = accept_ps
        if self.checker is not None:
            if self._flush_depth:
                # a flush rides the nt-store datapath for timing, but
                # persistency-wise it writes back an existing cache line
                # rather than acknowledging new data
                self.checker.flush(addr, accept_ps)
            else:
                self.checker.ack(addr, accept_ps, domain="wpq")

    def note_store(self, addr: int, t: int) -> None:
        """A regular (cached) store retired at ``t`` — acknowledged to
        the program but volatile until flushed and fenced."""
        if t > self.horizon_ps:
            self.horizon_ps = t
        if self.checker is not None:
            self.checker.ack(addr, t, domain="cache")

    @contextmanager
    def flush_scope(self) -> Iterator[None]:
        """While active, writes reported via :meth:`note_write` are
        recorded as cache-line flushes (``clwb``/``clflushopt``) instead
        of acknowledged nt-stores.  Lets stream drivers reuse the
        write datapath for flush timing without poisoning the
        persistence history with phantom WPQ acks."""
        self._flush_depth += 1
        try:
            yield
        finally:
            self._flush_depth -= 1

    def note_fence(self, done_ps: int) -> None:
        if done_ps > self.horizon_ps:
            self.horizon_ps = done_ps
        if self.checker is not None:
            self.checker.fence(done_ps)

    def note_lazy_absorb(self, addr: int, now: int) -> None:
        if self.checker is not None:
            self.checker.lazy_absorb(addr, now)

    def note_lazy_writeback(self, addr: int, now: int) -> None:
        if self.checker is not None:
            self.checker.lazy_writeback(addr, now)

    # -- reading --------------------------------------------------------

    def publish(self, stats, prefix: str = "faults") -> None:
        """Register pull-gauges for the injection counters on a system's
        stats registry (snapshot-time only, zero hot-path cost).

        Call once per injector: collection snapshots sum per path
        across systems, so publishing the same counters onto several
        systems would multiply them in merged views.  The registry
        enforces this via :attr:`published`.
        """
        for name in self.counters:
            stats.gauge(f"{prefix}.{name}",
                        (lambda key: lambda: self.counters[key])(name))
        stats.gauge(f"{prefix}.requests", lambda: self.requests)
        self.published = True

    def summary(self) -> Dict[str, object]:
        """Self-describing injection metadata for reports/exports."""
        return {
            "plan_faults": len(self.plan),
            "seed": self.plan.seed,
            "requests": self.requests,
            "horizon_ps": self.horizon_ps,
            "power_cut_ps": self.cut_ps,
            "counters": dict(self.counters),
        }


# ----------------------------------------------------------------------
# session: ``session(injector)`` attaches the injector to every system
# the target registry builds while active (``None`` is a no-op context)
# ----------------------------------------------------------------------

_SESSIONS = SessionStack(NULL_FAULTS)
current = _SESSIONS.current
session = _SESSIONS.session
