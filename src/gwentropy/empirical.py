"""Order-statistic estimators of the weighted survival and failure measures.

The estimators replace the survival (or failure) function with its empirical
step version and integrate x against its gamma-th power exactly, which turns
the integral into a weighted sum of half-differences of squared order
statistics.  Two variants exist on the survival side: the plain sum over the
n - 1 gaps between consecutive order statistics, and the sum extended by the
leading segment [0, x_(1)) where the empirical survival function is still 1.
On the failure side the leading segment has empirical cdf 0 and contributes
nothing, so the variants coincide there.

Both estimators, gof.statistic and the replication engine reduce through one
kernel, _gap_sums, which streams the sorted sample in chunks of _CHUNK_VALUES
gaps; its memory beyond the sample is still one array of n - 1 terms.  A
Sample keeps the kernel's total, one float per (gamma, side, head), so
estimating and then testing one sample costs one reduction per side.
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
        arr = np.asarray(values, dtype=float)
        if arr.ndim > 1:
            raise GwentropyError("sample must be one-dimensional")
        arr = np.sort(arr, axis=None)
        if arr.size == 0:
            raise GwentropyError("sample is empty")
        self._keep(arr)

    def _keep(self, arr: np.ndarray) -> None:
        """Check the ends of sorted arr and store it read-only."""
        # sorted, NaN and +inf come last and -inf first; "finite" is reported first
        if not (math.isfinite(arr[0]) and math.isfinite(arr[-1])):
            raise GwentropyError("sample values must be finite")
        if arr[0] < 0.0:
            raise GwentropyError("sample values must be nonnegative")
        arr.flags.writeable = False
        self.values = arr
        self._sums: dict[tuple[float, bool, bool], float] = {}

    def _gap_sum(self, gamma: float, survival: bool, include_head: bool) -> float:
        """_gap_sums of the sample, formed once per key; not finite raises (the squares overflow)."""
        key = (gamma, survival, include_head)
        if key not in self._sums:
            with np.errstate(over="ignore", invalid="ignore"):
                total = float(_gap_sums(self.values, gamma, survival, include_head))
            if not math.isfinite(total):
                raise DegenerateSampleError("empirical integral is not finite; the sample's squares overflow")
            self._sums[key] = total
        return self._sums[key]

    @property
    def n(self) -> int:
        return self.values.size

    def scaled(self, factor: float) -> "Sample":
        if not 0.0 < factor < math.inf:
            raise GwentropyError("scale factor must be positive and finite")
        # a positive factor keeps the order, so the product is not sorted again;
        # overflow to inf fails the finite check
        out = Sample.__new__(Sample)
        with np.errstate(over="ignore"):
            arr = self.values * factor
        out._keep(arr)
        return out

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


# gaps per chunk of the estimator kernel, whose temporaries stay in cache at
# any n; values (rows x n) per block of the replication engine (gof._replicate),
# twice a chunk so that each array Philox call covers twice the counters
_CHUNK_VALUES = 16384
_BLOCK_VALUES = 2 * _CHUNK_VALUES


def _gap_sums(x: np.ndarray, gamma: float, survival: bool, include_head: bool) -> np.ndarray:
    """Weighted half-gap sums along the last axis of sorted x: the sum over
    gaps i = 1 .. n-1 of w_i * (x_(i+1)**2 - x_(i)**2) / 2, plus x_(1)**2 / 2
    if include_head, with w_i = (1 - i/n) ** gamma on the survival side and
    (i/n) ** gamma on the failure side.

    The one kernel behind empirical_gwse, empirical_gwfe, gof.statistic and
    the replication engine, which passes one sorted sample per row.  Terms
    and weights are formed _CHUNK_VALUES gaps at a time into one terms array,
    reduced once, so a sum has the bits of the whole-array formula and a
    row's sum has the bits of the same sample reduced on its own.
    """
    n = x.shape[-1]
    terms = np.empty(x.shape[:-1] + (n - 1,))
    for lo in range(0, n - 1, _CHUNK_VALUES):
        hi = min(lo + _CHUNK_VALUES, n - 1)
        xc = x[..., lo : hi + 1]
        sq = xc * xc
        q = np.arange(lo + 1, hi + 1, dtype=float)
        q /= n
        if survival:
            np.subtract(1.0, q, out=q)
        q **= gamma
        chunk = terms[..., lo:hi]
        np.subtract(sq[..., 1:], sq[..., :-1], out=chunk)
        chunk *= 0.5
        chunk *= q
    total = terms.sum(axis=-1)
    if include_head:
        total = total + x[..., 0] * x[..., 0] / 2.0
    return total


def _log_gap_sum(total: float) -> float:
    """Log of a gap sum; math.log, not np.log, keeps the simulated tables' bits."""
    if not total > 0.0:  # NaN fails too
        raise DegenerateSampleError("empirical integral is zero; the sample carries no spread or its squares underflow")
    return math.log(total)


def empirical_gwse(
    s: Sample,
    order: EntropyOrder,
    variant: EstimatorVariant = EstimatorVariant.GAPS_ONLY,
) -> float:
    """Estimate the weighted survival entropy from a sample.

    The gap i (between the i-th and (i+1)-th order statistics) carries
    weight (1 - i/n) ** gamma.  Raises DegenerateSampleError when the sum
    is not positive (for instance when all values coincide) or not finite.
    """
    if s.n < 2:
        raise GwentropyError("estimator needs at least 2 observations")
    return _log_gap_sum(s._gap_sum(order.gamma, True, variant is EstimatorVariant.FULL_STEP)) / order.delta


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
    return _log_gap_sum(s._gap_sum(order.gamma, False, False)) / order.delta
