"""Zipfian sampling (the YCSB request distribution).

Precomputes the CDF with numpy so drawing a key is one binary search —
fast enough to generate hundreds of thousands of trace records.  numpy
is imported by the first sampler built, so only the runs that draw
Zipfian keys (YCSB in fig12 and fig13) load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import ConfigError

if TYPE_CHECKING:
    import numpy as np


class ZipfSampler:
    """Draw keys in [0, n) with probability proportional to 1/rank^theta.

    ``theta=0.99`` is YCSB's default skew: a handful of keys dominate the
    request stream, which is exactly what concentrates writes on the
    Top10 cache lines in Figure 12b.
    """

    def __init__(self, n: int, theta: float = 0.99, seed: int = 0) -> None:
        if n <= 0:
            raise ConfigError("n must be positive")
        if theta < 0:
            raise ConfigError("theta must be non-negative")
        import numpy as np

        self.n = n
        self.theta = theta
        weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** theta
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        self._rng = np.random.default_rng(seed)

    def sample(self) -> int:
        """One key (0 = hottest)."""
        u = self._rng.random()
        return int(self._cdf.searchsorted(u))

    def sample_many(self, count: int) -> np.ndarray:
        """Vector of ``count`` keys."""
        u = self._rng.random(count)
        return self._cdf.searchsorted(u)

    def probability(self, rank: int) -> float:
        """Probability mass of the key with the given rank (0-based)."""
        if rank == 0:
            return float(self._cdf[0])
        return float(self._cdf[rank] - self._cdf[rank - 1])
