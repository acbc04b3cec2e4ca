"""Experiment harness: one module per paper table/figure.

Every module exposes ``run(scale=...)`` returning an
:class:`~repro.experiments.common.ExperimentResult` whose rows/series
mirror what the paper plots, plus the digitized reference values where
the paper reported measurements.  ``render()`` pretty-prints the
comparison; ``python -m repro.experiments.runner`` prints every row (the
numbers EXPERIMENTS.md records), and the tier-1 tests assert the paper's
claims about them.
"""

from repro.experiments.common import ExperimentResult, Scale

__all__ = ["ExperimentResult", "Scale"]
