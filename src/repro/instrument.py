"""Instrumentation bus: one uniform observability channel for the simulator.

Components publish three kinds of signals into an :class:`InstrumentBus`:

* **counters / histograms** — push-style, identical to the primitives in
  :mod:`repro.engine.stats` (and backed by them);
* **gauges** — pull-style: a callable registered once and evaluated only
  at :meth:`InstrumentBus.snapshot` time.  Gauges are how the queueing
  primitives (station occupancy, blocked time, server busy time) become
  observable with *zero* hot-path cost — nothing is recorded per event.

Buses are hierarchical: ``bus.scope("imc").scope("dimm0")`` returns a
view that prefixes every path with ``imc.dimm0.``, so a component can be
instrumented without knowing where it sits in the system tree.

The default bus everywhere is :data:`NULL_BUS`, whose methods are all
no-ops — constructing a bare ``VansSystem()`` pays nothing for any of
this.  The target registry (:mod:`repro.registry`) attaches a real bus
to every system it builds, and the experiment runner gathers those
systems through a :class:`Collection` so every
:class:`~repro.experiments.common.ExperimentResult` can carry a merged,
self-describing snapshot of what its run did.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Union

from repro.engine.stats import Counter, Histogram

Number = Union[int, float]


class BusSignals(NamedTuple):
    """Typed view of everything registered on an :class:`InstrumentBus`.

    The flat :meth:`InstrumentBus.snapshot` loses the signal kind; the
    telemetry sampler needs it (counters become deltas/rates, gauges stay
    levels, histograms become quantile series), so the bus also exposes
    this structured form.
    """

    counters: Dict[str, Counter]
    histograms: Dict[str, Histogram]
    gauges: Dict[str, Callable[[], Number]]


class _NullCounter:
    """Counter look-alike that drops everything."""

    __slots__ = ()

    def add(self, amount: int = 1) -> None:
        pass


class _NullHistogram:
    """Histogram look-alike that drops everything."""

    __slots__ = ()

    def record(self, value: int) -> None:
        pass


class NullBus:
    """No-op instrumentation sink (the zero-cost default)."""

    __slots__ = ()

    def counter(self, path: str) -> _NullCounter:
        return _NULL_COUNTER

    def histogram(self, path: str) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def gauge(self, path: str, fn: Callable[[], Number]) -> None:
        pass

    def scope(self, prefix: str) -> "NullBus":
        return self

    def snapshot(self) -> Dict[str, Number]:
        return {}


_NULL_COUNTER = _NullCounter()
_NULL_HISTOGRAM = _NullHistogram()

#: shared no-op bus; safe to pass around, it holds no state.
NULL_BUS = NullBus()


def _join(prefix: str, path: str) -> str:
    return f"{prefix}.{path}" if prefix else path


class InstrumentBus:
    """Hierarchical counter/histogram/gauge sink."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, Callable[[], Number]] = {}

    # -- registration --------------------------------------------------

    def counter(self, path: str) -> Counter:
        counter = self._counters.get(path)
        if counter is None:
            counter = Counter(path)
            self._counters[path] = counter
        return counter

    def histogram(self, path: str) -> Histogram:
        hist = self._histograms.get(path)
        if hist is None:
            hist = Histogram(path)
            self._histograms[path] = hist
        return hist

    def gauge(self, path: str, fn: Callable[[], Number]) -> None:
        """Register a pull-style metric; ``fn`` runs at snapshot time."""
        self._gauges[path] = fn

    def scope(self, prefix: str) -> "ScopedBus":
        """A view of this bus that prefixes every path with ``prefix.``."""
        return ScopedBus(self, prefix)

    # -- reading -------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Flat ``dotted.path -> value`` view of everything registered.

        Histograms expand uniformly through
        :meth:`~repro.engine.stats.Histogram.as_stats`
        (``.count/.sum/.min/.max/.mean/.p50/.p99``); gauges are evaluated
        now.  A gauge whose callable raises does not abort the snapshot:
        its path is recorded under the ``errors`` key (a list of paths)
        and every other signal is still reported.
        """
        snap: Dict[str, object] = {}
        for path, counter in self._counters.items():
            snap[path] = counter.value
        for path, hist in self._histograms.items():
            for key, value in hist.as_stats().items():
                snap[f"{path}.{key}"] = value
        errors: List[str] = []
        for path, fn in self._gauges.items():
            try:
                snap[path] = fn()
            except Exception:
                errors.append(path)
        if errors:
            snap["errors"] = errors
        return snap

    def signals(self) -> BusSignals:
        """Structured (counters, histograms, gauges) view; see
        :class:`BusSignals`."""
        return BusSignals(dict(self._counters), dict(self._histograms),
                          dict(self._gauges))


class ScopedBus:
    """Prefixing view over a root :class:`InstrumentBus`."""

    __slots__ = ("_root", "_prefix")

    def __init__(self, root: InstrumentBus, prefix: str) -> None:
        self._root = root
        self._prefix = prefix

    def counter(self, path: str) -> Counter:
        return self._root.counter(_join(self._prefix, path))

    def histogram(self, path: str) -> Histogram:
        return self._root.histogram(_join(self._prefix, path))

    def gauge(self, path: str, fn: Callable[[], Number]) -> None:
        self._root.gauge(_join(self._prefix, path), fn)

    def scope(self, prefix: str) -> "ScopedBus":
        return ScopedBus(self._root, _join(self._prefix, prefix))

    def snapshot(self) -> Dict[str, object]:
        """Snapshot of this scope's subtree, with scope-relative paths."""
        prefix = self._prefix + "."
        snap: Dict[str, object] = {}
        for path, value in self._root.snapshot().items():
            if path == "errors":
                scoped = [p[len(prefix):] for p in value
                          if p.startswith(prefix)]
                if scoped:
                    snap["errors"] = scoped
            elif path.startswith(prefix):
                snap[path[len(prefix):]] = value
        return snap


AnyBus = Union[InstrumentBus, ScopedBus, NullBus]

# ----------------------------------------------------------------------
# collection: gather every system built during an experiment
# ----------------------------------------------------------------------

_ACTIVE_COLLECTIONS: List["Collection"] = []


class Collection:
    """Context that gathers systems built while it is active.

    The registry's ``build()`` announces every system it constructs; a
    harness wraps an experiment in a :class:`Collection` and afterwards
    merges the instrumentation snapshots of everything the experiment
    built — no experiment needs to thread stats plumbing by hand.
    """

    def __init__(self) -> None:
        self._systems: List[object] = []
        self._frozen: Optional[Dict[str, Number]] = None

    def __enter__(self) -> "Collection":
        _ACTIVE_COLLECTIONS.append(self)
        self._frozen = None
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_COLLECTIONS.remove(self)
        # Freeze the merged snapshot now: gauges are pull-style, so a
        # system that keeps running after the experiment ends (exercised
        # by a later harness step) would otherwise silently mutate this
        # collection's view of the past.
        self._frozen = self._merge_live()

    def register(self, system: object) -> None:
        self._systems.append(system)

    def __len__(self) -> int:
        return len(self._systems)

    def merged(self) -> Dict[str, Number]:
        """Sum of every collected system's instrumentation snapshot.

        Values are summed per dotted path across systems (counters and
        busy/blocked-time gauges add naturally; snapshot consumers that
        need per-system data can query the systems directly).  The
        special key ``systems`` counts contributors.

        While the collection is active this is a live view; once the
        ``with`` block exits the snapshot taken at exit time is returned,
        so later activity on the same systems cannot retroactively change
        an experiment's recorded stats.
        """
        if self._frozen is not None:
            return dict(self._frozen)
        return self._merge_live()

    def _merge_live(self) -> Dict[str, Number]:
        merged: Dict[str, Number] = {}
        for system in self._systems:
            snapshot_of = getattr(system, "instrument_snapshot", None)
            if snapshot_of is None:
                continue
            for path, value in snapshot_of().items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                merged[path] = merged.get(path, 0) + value
        merged["systems"] = len(self._systems)
        return merged


def announce(system: object) -> None:
    """Register ``system`` with the innermost active :class:`Collection`."""
    if _ACTIVE_COLLECTIONS:
        _ACTIVE_COLLECTIONS[-1].register(system)
