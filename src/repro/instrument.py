"""Collection: gather every system an experiment builds.

Each system keeps its counters, histograms and pull-gauges in one
:class:`~repro.engine.stats.StatsRegistry`, and
``TargetSystem.instrument_snapshot()`` is that registry's snapshot.  The
target registry (:mod:`repro.registry`) announces every system it builds
to the active :class:`Collection`, so every
:class:`~repro.experiments.common.ExperimentResult` can carry a merged,
self-describing snapshot of what its run did.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.engine.stats import Number

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
