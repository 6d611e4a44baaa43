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
kernel, _gap_sums, which streams the sorted sample in chunks of at most
_CHUNK_VALUES gaps along numpy's pairwise-summation tree and forms both
sides in the same pass; its memory beyond the sample is a few chunks at any
n.  A sample whose gaps fit in one chunk reads each side's weights from a
read-only cache of the last _WEIGHT_ENTRIES keys (n, gamma, side), 1 MiB at
most.  A Sample keeps both sides' totals of each gamma it was asked for and
adds the head x_(1)**2 / 2 on read, so both estimators, both variants and
gof.statistic on one sample cost one kernel pass per gamma.

sample draws through the SeededSampler of gwentropy._random, the one owner
of the package's random draws, and gets, sorted, the values the
replication engine draws on the same key.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

from ._random import SeededSampler
from .distributions import Distribution
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

    Accepts any one-dimensional sequence of bool, integer or float dtype;
    values must be finite and >= 0.
    """

    def __init__(self, values):
        arr = np.asarray(values)
        if arr.dtype.kind not in "biuf":  # complex parts would be dropped, strings parsed
            raise GwentropyError("sample values must be real numbers")
        arr = arr.astype(float, copy=False)
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
        self._sums: dict[float, tuple[float, float]] = {}

    def _gap_sum(self, gamma: float, survival: bool, include_head: bool) -> float:
        """One side's gap sum of the sample, plus _head if include_head; not
        finite raises (the squares overflow).  The first request for a gamma
        forms both sides in one _gap_sums pass and keeps them."""
        with np.errstate(over="ignore", invalid="ignore"):
            if gamma not in self._sums:
                self._sums[gamma] = tuple(float(t) for t in _gap_sums(self.values, gamma, (True, False)))
            total = self._sums[gamma][0 if survival else 1]
            if include_head:
                total = float(total + _head(self.values))
        return _finite(total)

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
# twice a chunk so that each array Philox call covers twice the counters; the
# one-leaf weight arrays kept by _leaf_weights, of at most a chunk each: 1 MiB
_CHUNK_VALUES = 16384
_BLOCK_VALUES = 2 * _CHUNK_VALUES
_WEIGHT_ENTRIES = 8


def _gap_sums(x: np.ndarray, gamma: float, sides: tuple[bool, ...]) -> list[np.ndarray]:
    """Weighted half-gap sums along the last axis of sorted x, one per side
    in sides (True: survival, False: failure): the sum over gaps
    i = 1 .. n-1 of w_i * (x_(i+1)**2 - x_(i)**2) / 2, with
    w_i = (1 - i/n) ** gamma on the survival side and (i/n) ** gamma on the
    failure side.  The head x_(1)**2 / 2 is _head's.

    The one kernel behind empirical_gwse, empirical_gwfe, gof.statistic and
    the replication engine, which passes one sorted sample per row.  The
    squares, gaps and i/n are formed once for every side, and no array of
    the n - 1 terms is built: the sums follow the tree of numpy's pairwise
    sum, whose node of m > 128 values splits at m // 2 - (m // 2) % 8.  A
    node of at most _CHUNK_VALUES gaps is a leaf, its terms formed in reused
    chunk buffers and reduced by .sum(axis=-1), numpy's pairwise sum of that
    node.  So every total has the bits of the whole array's
    terms.sum(axis=-1), and a row's those of its sample reduced on its own.
    Where the n - 1 gaps are one leaf, their weights, formed by the same
    operations, come from _leaf_weights; a larger sample forms them per leaf.
    """
    n = x.shape[-1]
    width = min(n - 1, _CHUNK_VALUES)
    squares = np.empty(x.shape[:-1] + (width + 1,))  # the squares, then a side's terms
    gaps = np.empty(x.shape[:-1] + (width,))

    def leaf(lo: int, m: int) -> list[np.ndarray]:
        xc = x[..., lo : lo + m + 1]
        sq = np.multiply(xc, xc, out=squares[..., : m + 1])
        g = np.subtract(sq[..., 1:], sq[..., :-1], out=gaps[..., :m])
        g *= 0.5
        weights = [_leaf_weights(n, gamma, s) for s in sides] if m == n - 1 else _weights(lo, m, n, gamma, sides)
        # the last side's terms overwrite the gaps
        return [np.multiply(g, w, out=g if k == len(sides) - 1 else squares[..., :m]).sum(axis=-1) for k, w in enumerate(weights)]

    return _pairwise(leaf, 0, n - 1)


def _weights(lo: int, m: int, n: int, gamma: float, sides: tuple[bool, ...]) -> list[np.ndarray]:
    """Each side's weights, (1 - i/n) ** gamma or (i/n) ** gamma, over the
    gaps i = lo + 1 .. lo + m; i/n is formed once, the last side's in place."""
    q = np.arange(lo + 1, lo + m + 1, dtype=float)
    q /= n
    out = [q.copy() for _ in sides[1:]] + [q]
    for w, survival in zip(out, sides):
        if survival:
            np.subtract(1.0, w, out=w)
        w **= gamma
    return out


@functools.lru_cache(maxsize=_WEIGHT_ENTRIES)
def _leaf_weights(n: int, gamma: float, survival: bool) -> np.ndarray:
    """One side's read-only weights over the n - 1 gaps of a one-leaf sample,
    shared by the samples of one size and by the blocks of an engine row."""
    (w,) = _weights(0, n - 1, n, gamma, (survival,))
    w.flags.writeable = False
    return w


def _pairwise(leaf, lo: int, m: int) -> list[np.ndarray]:
    """leaf's totals over gaps [lo, lo + m), added up along numpy's pairwise
    tree; module-level, so the kernel's buffers form no reference cycle."""
    if m <= _CHUNK_VALUES:
        return leaf(lo, m)
    h = m // 2 - (m // 2) % 8
    return [a + b for a, b in zip(_pairwise(leaf, lo, h), _pairwise(leaf, lo + h, m - h))]


def _head(x: np.ndarray) -> np.ndarray:
    """The leading segment's x_(1)**2 / 2 along the last axis of sorted x,
    which the FULL_STEP variant adds to the survival gap sum."""
    return x[..., 0] * x[..., 0] / 2.0


def _finite(total: float) -> float:
    """total, a gap sum, unless it is not finite: the sample's squares overflow."""
    if not math.isfinite(total):
        raise DegenerateSampleError("empirical integral is not finite; the sample's squares overflow")
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
