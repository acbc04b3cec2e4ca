"""Typed sim-time time-series: what the telemetry sampler produces.

A :class:`Timeline` is an ordered set of samples taken at simulated-time
boundaries; each sampled path becomes one :class:`TimeSeries` tagged
with its signal *kind*:

* ``counter`` — cumulative monotone values (stats-registry counters,
  histogram ``.count``s).  Deltas and rates are derived views, so the
  stored series stays exact integers;
* ``gauge`` — levels evaluated at sample time (queue occupancy, busy
  picoseconds, wear blocks tracked);
* ``stat`` — distribution statistics at sample time (histogram
  ``.mean/.p50/.p99``).

Everything in a timeline is simulated time and deterministic state —
no wall-clock value ever enters one, so telemetry-enabled runs stay
bit-identical between serial and parallel execution.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.common.errors import ConfigError

#: signal kinds a series can carry
KINDS = ("counter", "gauge", "stat")

_PS_PER_S = 1_000_000_000_000


class TimeSeries:
    """One sampled path: parallel ``times_ps`` / ``values`` arrays."""

    __slots__ = ("path", "kind", "times_ps", "values")

    def __init__(self, path: str, kind: str) -> None:
        if kind not in KINDS:
            raise ConfigError(
                f"unknown series kind {kind!r}; expected one of {KINDS}")
        self.path = path
        self.kind = kind
        self.times_ps: List[int] = []
        self.values: List[float] = []

    def add(self, t_ps: int, value: float) -> None:
        self.times_ps.append(t_ps)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterable[Tuple[int, float]]:
        return iter(zip(self.times_ps, self.values))

    @property
    def final(self) -> float:
        return self.values[-1] if self.values else 0.0

    def deltas(self) -> List[float]:
        """Per-sample increments (first sample counts from zero).

        Meaningful for ``counter`` series; for levels it is just the
        discrete difference.
        """
        out: List[float] = []
        prev = 0.0
        for value in self.values:
            out.append(value - prev)
            prev = value
        return out

    def rates_per_s(self) -> List[float]:
        """Deltas scaled to events per simulated second."""
        out: List[float] = []
        prev_t: Optional[int] = None
        prev_v = 0.0
        for t, value in zip(self.times_ps, self.values):
            dt = t - (prev_t if prev_t is not None else 0)
            out.append((value - prev_v) / (dt / _PS_PER_S) if dt > 0 else 0.0)
            prev_t, prev_v = t, value
        return out

    def as_dict(self) -> Dict[str, object]:
        return {"kind": self.kind,
                "t_ps": list(self.times_ps),
                "values": list(self.values)}


class Timeline:
    """All series sampled over one run, at a fixed sim-time interval."""

    def __init__(self, interval_ps: int) -> None:
        if interval_ps <= 0:
            raise ConfigError(
                f"telemetry interval must be positive, got {interval_ps}")
        self.interval_ps = interval_ps
        self.sample_times_ps: List[int] = []
        self.series: Dict[str, TimeSeries] = {}
        #: gauge paths whose callable raised during sampling (deduped,
        #: first-seen order)
        self.errors: List[str] = []

    # -- recording -----------------------------------------------------

    def _series(self, path: str, kind: str) -> TimeSeries:
        series = self.series.get(path)
        if series is None:
            series = TimeSeries(path, kind)
            self.series[path] = series
        return series

    def record(self, t_ps: int,
               counters: Mapping[str, float],
               gauges: Mapping[str, float],
               stats: Mapping[str, float],
               errors: Iterable[str] = ()) -> None:
        """Append one sample taken at simulated time ``t_ps``."""
        self.sample_times_ps.append(t_ps)
        for path, value in counters.items():
            self._series(path, "counter").add(t_ps, value)
        for path, value in gauges.items():
            self._series(path, "gauge").add(t_ps, value)
        for path, value in stats.items():
            self._series(path, "stat").add(t_ps, value)
        for path in errors:
            if path not in self.errors:
                self.errors.append(path)

    # -- reading -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.sample_times_ps)

    def paths(self, kind: Optional[str] = None) -> List[str]:
        """Sorted sampled paths, optionally filtered by kind."""
        return sorted(path for path, s in self.series.items()
                      if kind is None or s.kind == kind)

    @property
    def end_ps(self) -> int:
        return self.sample_times_ps[-1] if self.sample_times_ps else 0

    # -- (de)serialization ---------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe form (rides on ``ExperimentResult.telemetry`` and
        crosses process boundaries from parallel workers)."""
        return {
            "interval_ps": self.interval_ps,
            "samples": len(self.sample_times_ps),
            "sample_times_ps": list(self.sample_times_ps),
            "series": {path: s.as_dict()
                       for path, s in sorted(self.series.items())},
            "errors": list(self.errors),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "Timeline":
        timeline = cls(int(doc["interval_ps"]))
        timeline.sample_times_ps = [int(t) for t in doc["sample_times_ps"]]
        for path, entry in doc["series"].items():
            series = TimeSeries(path, str(entry["kind"]))
            series.times_ps = [int(t) for t in entry["t_ps"]]
            series.values = list(entry["values"])
            timeline.series[path] = series
        timeline.errors = list(doc.get("errors", ()))
        return timeline
