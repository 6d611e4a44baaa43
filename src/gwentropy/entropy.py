"""Survival and failure entropies of two-parameter order (alpha, beta).

For a lifetime X and a valid order (alpha, beta), write

    gamma = alpha + beta - 1  (> 0)
    delta = beta - alpha      (in (0, 1))

The measures evaluated here are logarithms of power integrals of the
survival or failure function, taken over the support of X:

* gwse: log( integral of x * sf(x)**gamma ) / delta
* gse:  log( integral of     sf(x)**gamma ) / delta
* gwfe: log( integral of x * cdf(x)**gamma ) / delta   (finite support only)
* gfe:  log( integral of     cdf(x)**gamma ) / delta   (finite support only)

plus the dynamic versions conditioned on survival past t (gdwse) or failure
by t (gdwfe), which normalize the integrand by sf(t)**gamma or cdf(t)**gamma.
The dynamic failure measure is evaluated at min(t, support top), so it
reaches the static gwfe value at the top and stays there.

Closed forms exist for the exponential, Pareto, uniform, rayleigh (survival
side) and uniform, power (failure side) families, and for the proportional
(reverse) hazards models and affine maps of them, which take theirs from the
base; everything else goes through tanh-sinh quadrature in probability
space.  Both routes live behind ``_quad``'s survival_integral /
failure_integral; ``method`` ("auto", "closed" or "quadrature") selects
between them, mainly so the two routes can be checked against each other.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._quad import _mapped, failure_integral, survival_integral
from .errors import GwentropyError

__all__ = [
    "EntropyOrder",
    "EntropyKind",
    "EntropyValue",
    "gwse",
    "gwfe",
    "gse",
    "gfe",
    "gdwse",
    "gdwfe",
    "gwse_first_order_stat",
    "gdwfe_max_order_stat",
]


@dataclass(frozen=True)
class EntropyOrder:
    """Order pair (alpha, beta) with beta >= 1 and beta - 1 < alpha < beta.

    The constraints make gamma = alpha + beta - 1 positive and keep
    delta = beta - alpha strictly inside (0, 1); an alpha so close to
    beta - 1 that gamma rounds to 0 is rejected too.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        a, b = self.alpha, self.beta
        if not (math.isfinite(a) and math.isfinite(b)):
            raise GwentropyError("order parameters must be finite")
        if not b >= 1.0:
            raise GwentropyError(f"beta must satisfy beta >= 1, got {b}")
        if not (b - 1.0 < a < b):
            raise GwentropyError(
                f"alpha must satisfy beta - 1 < alpha < beta, got alpha={a}, beta={b}"
            )
        if not self.gamma > 0.0:
            raise GwentropyError(f"gamma = alpha + beta - 1 must be positive, got {self.gamma} from alpha={a}, beta={b}")

    @property
    def gamma(self) -> float:
        return self.alpha + self.beta - 1.0

    @property
    def delta(self) -> float:
        return self.beta - self.alpha


class EntropyKind(enum.Enum):
    GWSE = "gwse"
    GWFE = "gwfe"
    GSE = "gse"
    GFE = "gfe"
    GDWSE = "gdwse"
    GDWFE = "gdwfe"


@dataclass(frozen=True)
class EntropyValue:
    """A computed measure; t is set exactly for the dynamic kinds."""

    value: float
    kind: EntropyKind
    order: EntropyOrder
    t: float | None = None

    def __float__(self) -> float:
        return self.value


# ---------- public measures ----------


def gwse(d, order: EntropyOrder, method: str = "auto") -> EntropyValue:
    """Weighted survival entropy of order (alpha, beta): gdwse at t = 0."""
    return EntropyValue(_gdwse_value(d, order, 0.0, method), EntropyKind.GWSE, order)


def gse(d, order: EntropyOrder, method: str = "auto") -> EntropyValue:
    """Unweighted survival entropy of order (alpha, beta)."""
    value = math.log(survival_integral(d, order.gamma, 0.0, method, weighted=False)) / order.delta
    return EntropyValue(value, EntropyKind.GSE, order)


def gwfe(d, order: EntropyOrder, method: str = "auto") -> EntropyValue:
    """Weighted failure entropy; requires a finite support top."""
    value = math.log(failure_integral(d, order.gamma, None, method)) / order.delta
    return EntropyValue(value, EntropyKind.GWFE, order)


def gfe(d, order: EntropyOrder, method: str = "auto") -> EntropyValue:
    """Unweighted failure entropy; requires a finite support top."""
    value = math.log(failure_integral(d, order.gamma, None, method, weighted=False)) / order.delta
    return EntropyValue(value, EntropyKind.GFE, order)


def gdwse(d, order: EntropyOrder, t: float, method: str = "auto") -> EntropyValue:
    """Dynamic weighted survival entropy of the residual life past t."""
    return EntropyValue(_gdwse_value(d, order, t, method), EntropyKind.GDWSE, order, t=t)


def _gdwse_value(d, order: EntropyOrder, t: float | np.ndarray, method: str = "auto") -> float | np.ndarray:
    """gdwse's value at a float t, or at each element of a 1-D array of t (checks.gdwse_derivative)."""
    array = isinstance(t, np.ndarray)
    if (t < 0.0).any() if array else t < 0.0:
        raise GwentropyError("t must be nonnegative")
    integral = survival_integral(d, order.gamma, t, method)
    return (_mapped(math.log, integral) if array else math.log(integral)) / order.delta


def gdwfe(d, order: EntropyOrder, t: float, method: str = "auto") -> EntropyValue:
    """Dynamic weighted failure entropy of the inactivity time before t.

    Evaluated at min(t, support top): past the top it equals the static
    gwfe and stays constant.
    """
    value = math.log(failure_integral(d, order.gamma, t, method)) / order.delta
    return EntropyValue(value, EntropyKind.GDWFE, order, t=t)


def gwse_first_order_stat(d, order: EntropyOrder, n: int, method: str = "auto") -> EntropyValue:
    """Weighted survival entropy of the minimum of n iid copies.

    The minimum's survival function is sf**n, so the integrand exponent is
    n * gamma.
    """
    n = _checked_size(n)
    value = math.log(survival_integral(d, n * order.gamma, 0.0, method)) / order.delta
    return EntropyValue(value, EntropyKind.GWSE, order)


def gdwfe_max_order_stat(d, order: EntropyOrder, n: int, t: float, method: str = "auto") -> EntropyValue:
    """Dynamic weighted failure entropy of the maximum of n iid copies.

    The maximum's cdf is cdf**n, so the integrand exponent is n * gamma.
    """
    n = _checked_size(n)
    value = math.log(failure_integral(d, n * order.gamma, t, method)) / order.delta
    return EntropyValue(value, EntropyKind.GDWFE, order, t=t)


def _checked_size(n: int) -> int:
    if not isinstance(n, (int,)) or isinstance(n, bool) or n < 1:
        raise GwentropyError(f"n must be a positive integer, got {n!r}")
    return n
