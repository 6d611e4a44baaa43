"""Order-statistic estimators of the weighted survival and failure measures.

The estimators replace the survival (or failure) function with its empirical
step version and integrate x against its gamma-th power exactly, which turns
the integral into a weighted sum of half-differences of squared order
statistics.  Two variants exist on the survival side: the plain sum over the
n - 1 gaps between consecutive order statistics, and the sum extended by the
leading segment [0, x_(1)) where the empirical survival function is still 1.
On the failure side the leading segment has empirical cdf 0 and contributes
nothing, so the variants coincide there.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .distributions import Distribution, SeededSampler
from .entropy import EntropyOrder
from .errors import DegenerateSampleError, GwentropyError

__all__ = [
    "Sample",
    "EstimatorVariant",
    "sample",
    "empirical_gwse",
    "empirical_gwfe",
]


class Sample:
    """A nonnegative data vector, stored sorted.

    Accepts any one-dimensional sequence; values must be finite and >= 0.
    """

    def __init__(self, values):
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            raise GwentropyError("sample is empty")
        if not np.all(np.isfinite(arr)):
            raise GwentropyError("sample values must be finite")
        if np.any(arr < 0.0):
            raise GwentropyError("sample values must be nonnegative")
        arr = np.sort(arr)
        arr.flags.writeable = False
        self.values = arr

    @property
    def n(self) -> int:
        return self.values.size

    def scaled(self, factor: float) -> "Sample":
        if factor <= 0.0:
            raise GwentropyError("scale factor must be positive")
        return Sample(self.values * factor)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Sample(n={self.n}, min={self.values[0]:g}, max={self.values[-1]:g})"


class EstimatorVariant(enum.Enum):
    """How the empirical survival integral treats the leading segment.

    GAPS_ONLY sums over the gaps between consecutive order statistics only;
    FULL_STEP also integrates over [0, x_(1)), where the empirical survival
    function equals 1, adding x_(1)**2 / 2 to the sum.
    """

    GAPS_ONLY = "gaps-only"
    FULL_STEP = "full-step"


def sample(d: Distribution, n: int, sampler: SeededSampler) -> Sample:
    """Draw a Sample of size n from d using the sampler's stream."""
    if n < 1:
        raise GwentropyError("sample size must be at least 1")
    return Sample(d.sample_values(n, sampler.generator()))


def _half_gap_sum(values: np.ndarray, weights: np.ndarray) -> float:
    sq = values * values
    return float(((sq[1:] - sq[:-1]) / 2.0 * weights).sum())


def _survival_weights(n: int, gamma: float) -> np.ndarray:
    """Weight (1 - i/n) ** gamma of gap i = 1 .. n-1 on the survival side."""
    i = np.arange(1, n)
    return (1.0 - i / n) ** gamma


def _log_survival_sum(x: np.ndarray, weights: np.ndarray, include_head: bool) -> float:
    """Log of the survival gap sum over sorted x, plus x_(1)**2 / 2 if include_head.

    The one kernel behind empirical_gwse, gof.statistic and the replication
    engine; math.log, not np.log, keeps the simulated tables' bits.
    """
    total = _half_gap_sum(x, weights)
    if include_head:
        total += float(x[0] * x[0]) / 2.0
    if not total > 0.0:
        raise DegenerateSampleError(
            "empirical survival integral is zero; sample carries no spread"
        )
    return math.log(total)


def empirical_gwse(
    s: Sample,
    order: EntropyOrder,
    variant: EstimatorVariant = EstimatorVariant.GAPS_ONLY,
) -> float:
    """Estimate the weighted survival entropy from a sample.

    The gap i (between the i-th and (i+1)-th order statistics) carries
    weight (1 - i/n) ** gamma.  Raises DegenerateSampleError when the sum
    is not positive (for instance when all values coincide).
    """
    if s.n < 2:
        raise GwentropyError("estimator needs at least 2 observations")
    weights = _survival_weights(s.n, order.gamma)
    return _log_survival_sum(s.values, weights, variant is EstimatorVariant.FULL_STEP) / order.delta


def empirical_gwfe(
    s: Sample,
    order: EntropyOrder,
    variant: EstimatorVariant = EstimatorVariant.GAPS_ONLY,
) -> float:
    """Estimate the weighted failure entropy from a sample.

    Gap i carries weight (i/n) ** gamma.  The variant is accepted for
    interface symmetry; the leading segment has empirical cdf 0, so both
    variants produce the same value here.
    """
    if s.n < 2:
        raise GwentropyError("estimator needs at least 2 observations")
    n = s.n
    i = np.arange(1, n)
    total = _half_gap_sum(s.values, (i / n) ** order.gamma)
    if not total > 0.0:
        raise DegenerateSampleError(
            "empirical failure integral is zero; sample carries no spread"
        )
    return float(np.log(total)) / order.delta
