"""Sim-clock-driven telemetry sampler over the instrumentation bus.

The instrumentation bus answers *how much, at the end*; the flight
recorder answers *where one request's time went*.  The telemetry sampler
answers the remaining question: *how did the run evolve* — queue depths,
bandwidth, wear activity, cache hit counts as a function of simulated
time.

Design mirrors ``NULL_BUS`` / ``NULL_FLIGHT`` exactly:

* :data:`NULL_TELEMETRY` is the zero-cost default on every component:
  ``enabled`` is a plain class-attribute ``False``, so hot paths guard
  ticking with one attribute load and a branch;
* a real :class:`TelemetrySampler` is installed for a run via
  :func:`session`; the target registry attaches the active sampler to
  every system it builds (and the systems tick it as their simulated
  clock advances);
* everything sampled is simulated time and deterministic simulator
  state.  No wall-clock value ever enters a timeline, so serial and
  ``--workers N`` runs produce bit-identical telemetry.

Sampling is driven by *ticks*: each completed request (and each event
the discrete-event :class:`~repro.engine.event.Engine` fires, when one
is wired) reports the current simulated time.  When the clock crosses an
interval boundary the sampler takes one typed snapshot of every attached
system — counters (stats-registry and bus), pull-gauges (evaluated with
the same error resilience as :meth:`InstrumentBus.snapshot`), and
histogram statistics — and appends it to the :class:`Timeline`.

Harnesses that rebuild a fresh system per sweep point restart the
simulated clock at zero; each newly attached system therefore opens a
new *clock domain*, and the sampler folds the previous domain's extent
into a monotone *run clock*, so a timeline always reads left-to-right
over the whole run.  Within a domain, requests may complete out of order
(FCFS banks drain independently); the run clock tracks the high-water
mark, so out-of-order completions never move time backwards.
"""

from __future__ import annotations

from operator import methodcaller
from typing import Dict, List, Tuple

from repro.common.session import SessionStack
from repro.common.units import US
from repro.engine.stats import Histogram, StatsRegistry
from repro.instrument import InstrumentBus
from repro.telemetry.series import Timeline

#: default sampling interval: 100 simulated microseconds
DEFAULT_INTERVAL_PS = 100 * US

#: histogram statistics emitted per sampled histogram (``count`` rides
#: separately as a counter-kind series)
_HIST_STATS = ("mean", "p50", "p99")


class NullTelemetry:
    """No-op sampler: the zero-cost default on every component."""

    __slots__ = ()

    enabled = False

    def attach(self, system: object) -> None:
        pass

    def tick(self, now_ps: int) -> None:
        pass

    def finalize(self) -> None:
        pass


#: shared no-op sampler; holds no state, safe to pass around.
NULL_TELEMETRY = NullTelemetry()


def _merged_hist_stats(hists: List[Histogram]) -> Tuple[float, Dict[str, float]]:
    """(total count, merged mean/p50/p99) across same-path histograms.

    Quantiles merge as count-weighted averages of the per-histogram
    quantiles — approximate, but deterministic and adequate for a
    telemetry series (the exact per-histogram values stay available in
    each system's own snapshot).
    """
    total = sum(h.count for h in hists)
    if total == 0:
        return 0, {key: 0.0 for key in _HIST_STATS}
    if len(hists) == 1:
        h = hists[0]
        return total, {"mean": h.mean, "p50": h.percentile(50.0),
                       "p99": h.percentile(99.0)}
    stats = {
        "mean": sum(h.total for h in hists) / total,
        "p50": sum(h.percentile(50.0) * h.count for h in hists) / total,
        "p99": sum(h.percentile(99.0) * h.count for h in hists) / total,
    }
    return total, stats


class TelemetrySampler:
    """Samples attached systems into a :class:`Timeline`.

    Args:
        interval_ps: simulated picoseconds between samples.
        max_samples: safety cap on timeline length (the sampler stops
            adding samples beyond it; the final :meth:`finalize` sample
            is always taken so the end state is never lost).
    """

    enabled = True

    def __init__(self, interval_ps: int = DEFAULT_INTERVAL_PS,
                 max_samples: int = 100_000) -> None:
        self.timeline = Timeline(interval_ps)
        self.interval_ps = self.timeline.interval_ps
        self.max_samples = max_samples
        self._systems: List[object] = []
        # run clock: concatenates per-system sim-clock domains
        self._base = 0
        self._domain_max = 0
        self._next_due = self.interval_ps
        self._last_sample_t = -1

    # -- wiring ---------------------------------------------------------

    def attach(self, system: object) -> None:
        """Include ``system`` in every subsequent sample (registry calls
        this for everything it builds during a session).

        A freshly built system starts its own simulated clock at zero, so
        attaching one also folds the previous clock domain's extent into
        the run-clock base — sweep harnesses that rebuild per point get a
        monotone concatenated timeline for free.
        """
        if not any(existing is system for existing in self._systems):
            self._systems.append(system)
            if self._domain_max > 0:
                self._base += self._domain_max
                self._domain_max = 0

    # -- ticking ---------------------------------------------------------

    def tick(self, now_ps: int) -> None:
        """Report the current simulated time; samples on boundary cross.

        ``now_ps`` below the domain high-water mark is an out-of-order
        completion, not a clock restart — the run clock only moves
        forward.
        """
        if now_ps > self._domain_max:
            self._domain_max = now_ps
        t = self._base + self._domain_max
        if t < self._next_due:
            return
        boundary = (t // self.interval_ps) * self.interval_ps
        if len(self.timeline) < self.max_samples:
            self._sample(boundary)
        self._next_due = boundary + self.interval_ps

    def finalize(self) -> None:
        """Take a terminal sample at the current run-clock time.

        Guarantees short runs (shorter than one interval) still produce
        a timeline, and that the final state always lands on it.
        """
        t = self._base + self._domain_max
        if t > self._last_sample_t:
            self._sample(t)

    # -- sampling --------------------------------------------------------

    def _sources(self, system: object):
        """(StatsRegistry, root InstrumentBus) pair for one system."""
        registries = []
        getter = getattr(system, "stat_registries", None)
        if callable(getter):
            registries = [r for r in getter()
                          if isinstance(r, StatsRegistry)]
        else:
            stats = getattr(system, "stats", None)
            if isinstance(stats, StatsRegistry):
                registries = [stats]
        bus = getattr(system, "instrument", None)
        bus = bus if isinstance(bus, InstrumentBus) else None
        return registries, bus

    def _sample(self, t_ps: int) -> None:
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        hists: Dict[str, List[Histogram]] = {}
        errors: List[str] = []
        for system in self._systems:
            registries, bus = self._sources(system)
            for registry in registries:
                for counter in registry.counters():
                    counters[counter.name] = (
                        counters.get(counter.name, 0) + counter.value)
                for name, hist in registry.histograms().items():
                    hists.setdefault(name, []).append(hist)
            if bus is not None:
                signals = bus.signals()
                for path, counter in signals.counters.items():
                    counters[path] = counters.get(path, 0) + counter.value
                for path, hist in signals.histograms.items():
                    hists.setdefault(path, []).append(hist)
                for path, fn in signals.gauges.items():
                    try:
                        value = fn()
                    except Exception:
                        errors.append(path)
                        continue
                    if isinstance(value, bool) or not isinstance(
                            value, (int, float)):
                        continue
                    gauges[path] = gauges.get(path, 0) + value
        stats: Dict[str, float] = {}
        for path, group in hists.items():
            count, merged = _merged_hist_stats(group)
            counters[f"{path}.count"] = count
            for key, value in merged.items():
                stats[f"{path}.{key}"] = value
        self.timeline.record(t_ps, counters, gauges, stats, errors)
        self._last_sample_t = t_ps

    # -- reporting -------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Self-describing sampling metadata for reports/exports."""
        return {
            "interval_ps": self.interval_ps,
            "samples": len(self.timeline),
            "series": len(self.timeline.series),
            "systems": len(self._systems),
            "end_ps": self.timeline.end_ps,
            "errors": list(self.timeline.errors),
        }


# ----------------------------------------------------------------------
# session: ``session(sampler)`` attaches the sampler to every system the
# target registry builds while active and finalizes the timeline on exit
# (``None`` is a no-op context)
# ----------------------------------------------------------------------

_SESSIONS = SessionStack(NULL_TELEMETRY, on_exit=methodcaller("finalize"))
current = _SESSIONS.current
session = _SESSIONS.session
