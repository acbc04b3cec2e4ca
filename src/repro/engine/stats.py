"""Statistics collection: counters, histograms, and time series.

Every simulated system keeps its signals in one :class:`StatsRegistry`
that its stations publish onto, so experiments, telemetry and progress
frames all read the same names (the paper's validation compares
internal counters such as the RMW buffer's read amplification against
hardware counters).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple, Union

Number = Union[int, float]


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Streaming histogram keeping mean/min/max plus sample quantiles.

    Stores raw samples up to ``max_samples`` then reservoir-free decimates
    (keeps every other sample) — adequate for latency distributions where
    we report means and coarse percentiles.
    """

    def __init__(self, name: str, max_samples: int = 65536) -> None:
        self.name = name
        self.max_samples = max_samples
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self._samples: List[int] = []
        self._stride = 1
        self._phase = 0

    def record(self, value: int) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._phase += 1
        if self._phase >= self._stride:
            self._phase = 0
            self._samples.append(value)
            if len(self._samples) >= self.max_samples:
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def dropped(self) -> int:
        """Samples decimated away (recorded but no longer retained)."""
        return self.count - len(self._samples)

    def percentile(self, pct: float) -> float:
        """Sample percentile in [0, 100]; 0 samples -> 0.0.

        The extremes are answered from the exact tracked ``min``/``max``
        rather than the retained samples: after decimation the true
        extrema may have been dropped from ``_samples``, and reporting a
        p100 below an observed value would be a lie.
        """
        if not self._samples:
            return 0.0
        if pct >= 100.0 and self.max is not None:
            return float(self.max)
        if pct <= 0.0 and self.min is not None:
            return float(self.min)
        ordered = sorted(self._samples)
        rank = (pct / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return float(ordered[low])
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac

    def stddev(self) -> float:
        if len(self._samples) < 2:
            return 0.0
        mean = sum(self._samples) / len(self._samples)
        var = sum((s - mean) ** 2 for s in self._samples) / (len(self._samples) - 1)
        return math.sqrt(var)

    def as_stats(self) -> Dict[str, float]:
        """Self-describing snapshot of the distribution.

        Every consumer (the stats registry's snapshot, the telemetry
        sampler) expands histograms through this one method, so a
        histogram always contributes the same uniform key set —
        ``count/sum/min/max/mean/p50/p99`` — no matter which station owns
        it.
        """
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p99": self.percentile(99.0),
        }


class LatencySeries:
    """Ordered (x, value) series — one point per sweep step or iteration."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.points: List[Tuple[float, float]] = []

    def add(self, x: float, value: float) -> None:
        self.points.append((x, value))

    @property
    def xs(self) -> List[float]:
        return [p[0] for p in self.points]

    @property
    def values(self) -> List[float]:
        return [p[1] for p in self.points]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


class StatsRegistry:
    """Every signal one system publishes, by dotted name.

    Three kinds: push-style counters and histograms that stations bump on
    the request path, and pull-style **gauges**, callables registered
    once and evaluated only at :meth:`snapshot` time.  Gauges are how the
    queueing primitives (station occupancy, blocked time, server busy
    time) become observable at zero request-path cost.  A composite
    system shows a component's own registry under a prefix with
    :meth:`nest`.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, Callable[[], Number]] = {}
        self._nested: List[Tuple[str, "StatsRegistry"]] = []

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def histogram(self, name: str) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram(name)
            self._histograms[name] = hist
        return hist

    def gauge(self, name: str, fn: Callable[[], Number]) -> None:
        """Register a pull-style value; ``fn`` runs at snapshot time.

        ``fn`` must not reach this registry (close over a station's
        state, or over a station that keeps no reference to the
        registry): a gauge that did would make its whole system cyclic
        garbage, left for the cycle collector.
        """
        self._gauges[name] = fn

    def nest(self, prefix: str, inner: "StatsRegistry") -> None:
        """Show ``inner``'s signals, live, under ``prefix.``."""
        self._nested.append((prefix, inner))

    def signals(self) -> Tuple[Dict[str, Counter], Dict[str, Histogram],
                               Dict[str, Callable[[], Number]]]:
        """``(counters, histograms, gauges)`` by name, each in
        registration order with nested registries' names prefixed after
        this registry's own (the telemetry sampler needs the kinds that
        the flat :meth:`snapshot` loses)."""
        kinds = (dict(self._counters), dict(self._histograms),
                 dict(self._gauges))
        for prefix, inner in self._nested:
            for mine, theirs in zip(kinds, inner.signals()):
                for name, signal in theirs.items():
                    mine[f"{prefix}.{name}"] = signal
        return kinds

    def snapshot(self) -> Dict[str, object]:
        """Flat ``name -> value`` view: counters, then histograms
        expanded through :meth:`Histogram.as_stats`
        (``.count/.sum/.min/.max/.mean/.p50/.p99``), then gauges
        evaluated now.  A gauge that raises does not abort the snapshot:
        its name is listed under the ``errors`` key."""
        counters, histograms, gauges = self.signals()
        snap: Dict[str, object] = {
            name: c.value for name, c in counters.items()}
        for name, hist in histograms.items():
            for key, value in hist.as_stats().items():
                snap[f"{name}.{key}"] = value
        errors: List[str] = []
        for name, fn in gauges.items():
            try:
                snap[name] = fn()
            except Exception:
                errors.append(name)
        if errors:
            snap["errors"] = errors
        return snap
