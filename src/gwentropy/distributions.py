"""Lifetime distribution families and transformation wrappers.

Every family exposes the same surface: pdf, cdf, sf, quantile, isf, hazard,
reverse_hazard, weighted mean residual life (wmrl), weighted mean inactivity
time (wmit), and inversion-based sampling.  Parametrizations:

* Exponential(rate):            sf(x) = exp(-rate * x)
* Pareto(shape, scale):         sf(x) = (scale / x) ** shape,  x >= scale
* Uniform(lower, upper):        flat on [lower, upper], lower >= 0
* Power(shape, upper):          cdf(x) = (x / upper) ** shape on [0, upper]
* Rayleigh(rate):               sf(x) = exp(-rate * x**2)
* Weibull(shape):               sf(x) = exp(-x ** shape), unit scale
* Gamma(shape):                 unit scale

Exponential, Rayleigh, Weibull and ProportionalHazards are hazard-form
families: each states its log survival -H(x), its hazard H' and the inverse
of -H, and its cdf, sf, quantile and isf follow from those.

wmrl(t) is E[(X^2 - t^2)/2 | X > t] written as an integral of x * sf(x)/sf(t)
from t; wmit(t) is the mirrored integral of x * cdf(x)/cdf(t) up to t.
"""

from __future__ import annotations

import math
import re

import numpy as np

from . import _random
from ._quad import failure_integral, survival_integral
from ._random import SeededSampler
from .errors import DivergenceError, GwentropyError

__all__ = [
    "Distribution",
    "Exponential",
    "Pareto",
    "Uniform",
    "Power",
    "Rayleigh",
    "Weibull",
    "Gamma",
    "Affine",
    "ProportionalHazards",
    "ProportionalReverseHazards",
    "SeededSampler",
    "from_spec",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GwentropyError(message)


def _parameter(value: float, name: str, low: float = 0.0, low_allowed: bool = False) -> float:
    """A family parameter as a float: finite, and above low (or equal to it where allowed)."""
    value = float(value)
    if not (math.isfinite(value) and (value > low or low_allowed and value == low)):  # no message built on success
        raise GwentropyError(f"{name} must be finite and {'>=' if low_allowed else '>'} {low:g}")
    return value


def _special():
    """scipy.special, imported at first use: only Gamma and Rayleigh's
    unweighted closed form need it, and it more than doubles start-up."""
    from scipy import special

    return special


# ---------- base class ----------


class Distribution:
    """Continuous nonnegative lifetime distribution."""

    support: tuple[float, float] = (0.0, math.inf)

    # a subclass gives pdf and either
    # - cdf, sf and the unchecked inverse _quantile (plus _isf where 1 - u
    #   would lose precision), and with an infinite tail also _log_sf,
    #   _hazard and _isf_log, which hold where sf underflows; or
    # - as a _HazardForm, only _log_sf = -H, _hazard = H' and _isf_log, the
    #   inverse of -H, from which that class derives cdf, sf, _quantile and _isf

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        raise NotImplementedError

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        raise NotImplementedError

    def sf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Survival function 1 - cdf, in a cancellation-free form."""
        raise NotImplementedError

    def quantile(self, u: float | np.ndarray) -> float | np.ndarray:
        """Inverse cdf; u must lie strictly inside (0, 1)."""
        return self._quantile(_checked_unit(u))

    def isf(self, v: float | np.ndarray) -> float | np.ndarray:
        """Inverse survival function; v strictly inside (0, 1)."""
        return self._isf(_checked_unit(v))

    def _quantile(self, u):
        """Inverse cdf without the argument check; u = 0 maps to the support bottom."""
        raise NotImplementedError

    def _isf(self, v):
        return self._quantile(np.asarray(1.0 - v))  # array: see ProportionalReverseHazards

    def _isf_log(self, log_v):
        """Inverse survival function at v = exp(log_v)."""
        return self._isf(np.exp(log_v))

    def _log_sf(self, x):
        with np.errstate(divide="ignore"):
            return np.log(self.sf(x))

    def _hazard(self, x):
        """pdf / sf as an array; nan or inf at and past a finite support top."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.pdf(x) / self.sf(x)

    # ---------- derived quantities ----------

    def hazard(self, t: float) -> float:
        """Failure rate pdf(t) / sf(t); defined where sf(t) > 0."""
        _require(not math.isnan(t), "hazard undefined at t=nan")  # sf(nan) is nan, not zero
        _require(float(self.sf(t)) > 0.0, f"hazard undefined at t={t}: survival is zero")
        return float(self._hazard(t))

    def reverse_hazard(self, t: float) -> float:
        """Reversed rate pdf(t) / cdf(t); defined where cdf(t) > 0."""
        _require(not math.isnan(t), "reverse hazard undefined at t=nan")
        c = float(self.cdf(t))
        _require(c > 0.0, f"reverse hazard undefined at t={t}: cdf is zero")
        return float(self.pdf(t)) / c

    def wmrl(self, t: float = 0.0, method: str = "auto") -> float:
        """Weighted mean residual life: integral of x * sf(x)/sf(t) over (t, inf).

        At t = 0 this equals half the second moment.
        """
        _require(t >= 0.0, "wmrl requires t >= 0")
        lo = self.support[0]
        # sf = 1 below the support bottom, so that stretch is exact
        head = (lo * lo - t * t) / 2.0 if t < lo else 0.0
        return head + survival_integral(self, 1.0, t, method)

    def wmit(self, t: float, method: str = "auto") -> float:
        """Weighted mean inactivity time: integral of x * cdf(x)/cdf(t) over (0, t)."""
        hi = self.support[1]
        # cdf = 1 above the support top, so that stretch is exact
        tail = (t * t - hi * hi) / 2.0 if t > hi else 0.0
        return tail + failure_integral(self, 1.0, t, method)

    # closed forms of the power integrals in _quad; None means quadrature
    def _survival_closed(self, g: float, t: float | np.ndarray, weighted: bool) -> float | np.ndarray | None:
        return None

    def _failure_closed(self, g: float, t: float | np.ndarray, weighted: bool) -> float | np.ndarray | None:
        return None

    def _check_tail(self, g: float, weighted: bool = True) -> None:
        """Raise when the integral of w(x) * sf(x)**g diverges at infinity."""

    def sample_values(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n values by quantile inversion on a single uniform block.

        rng.random draws from [0, 1); a zero maps to the support bottom.
        """
        return np.asarray(self._quantile(rng.random(n)), dtype=float)

    def _sample_streams(self, seed: int, streams: np.ndarray, n: int) -> np.ndarray:
        """Row i is sample_values(n, SeededSampler(seed, streams[i]).generator()),
        bit for bit: the replication engine's draw of a block of streams, whose
        values empirical.sample draws, sorted, through sample_values."""
        return np.asarray(self._quantile(_random.uniforms(seed, streams, n)), dtype=float)


class _HazardForm(Distribution):
    """A family stated by its log survival -H(x), H the cumulative hazard:
    sf, cdf and both inverses follow from _log_sf and _isf_log, in forms
    that keep their digits in both tails and where sf underflows, which
    ProportionalHazards with a small theta reaches."""

    def sf(self, x):
        return np.exp(self._log_sf(x))

    def cdf(self, x):
        return -np.expm1(self._log_sf(x))

    def _quantile(self, u):
        return self._isf_log(np.log1p(-u))

    def _isf(self, v):
        return self._isf_log(np.log(v))


# ---------- families ----------


class Exponential(_HazardForm):
    """Exponential with rate parameter, sf(x) = exp(-rate * x)."""

    def __init__(self, rate: float):
        self.rate = _parameter(rate, "rate")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, self.rate * np.exp(-self.rate * x))

    def _isf_log(self, log_v):
        with np.errstate(over="ignore"):  # inf where a subnormal rate overflows the quotient
            return log_v / -self.rate

    def _log_sf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # -inf where rate * x overflows, and sf = 0
            return np.where(x < 0.0, 0.0, -self.rate * x)

    def _hazard(self, x):
        return np.where(np.asarray(x, dtype=float) < 0.0, 0.0, self.rate)

    def _survival_closed(self, g, t, weighted):
        lg = self.rate * g
        return (1.0 + t * lg) / lg**2 if weighted else 1.0 / lg


class Pareto(Distribution):
    """Pareto with tail index `shape` and lower endpoint `scale`."""

    def __init__(self, shape: float, scale: float):
        self.shape = _parameter(shape, "shape")
        self.scale = _parameter(scale, "scale")
        self.support = (self.scale, math.inf)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        below = x < self.scale  # NaN is not below: it stays NaN
        xs = np.where(below, self.scale, x)
        with np.errstate(over="ignore", invalid="ignore"):  # scale ** shape, xs ** (shape + 1) past the float range
            return np.where(below, 0.0, self.shape * np.float64(self.scale) ** self.shape / xs ** (self.shape + 1.0))

    def cdf(self, x):
        return 1.0 - self.sf(x)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        below = x < self.scale
        xs = np.where(below, self.scale, x)
        return np.where(below, 1.0, (self.scale / xs) ** self.shape)

    def _quantile(self, u):
        with np.errstate(over="ignore"):  # inf where the quantile passes the float range
            return self.scale * (1.0 - u) ** (-1.0 / self.shape)

    def _isf(self, v):
        return self.scale * v ** (-1.0 / self.shape)

    def _isf_log(self, log_v):
        return self.scale * np.exp(-log_v / self.shape)

    def _log_sf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= self.scale, 0.0, self.shape * np.log(self.scale / np.maximum(x, self.scale)))

    def _hazard(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < self.scale, 0.0, self.shape / np.maximum(x, self.scale))

    def _check_tail(self, g, weighted=True):
        need = 2.0 if weighted else 1.0
        if self.shape * g <= need:
            w = "x * " if weighted else ""
            raise DivergenceError(
                f"integral of {w}sf**{g:g} diverges for Pareto tail index {self.shape:g}"
                f" (needs shape * {g:g} > {need:g})"
            )

    def _survival_closed(self, g, t, weighted):
        s = np.maximum(t, self.scale)
        ag = self.shape * g
        return s * s / (ag - 2.0) if weighted else s / (ag - 1.0)


class Uniform(Distribution):
    """Uniform on [lower, upper] with lower >= 0."""

    def __init__(self, lower: float, upper: float):
        self.lower = _parameter(lower, "lower bound", low_allowed=True)
        self.upper = _parameter(upper, "upper bound", self.lower)
        self.support = (self.lower, self.upper)

    def _width(self):
        return self.upper - self.lower

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lower) & (x <= self.upper)
        return np.where(inside, 1.0 / self._width(), np.where(np.isnan(x), np.nan, 0.0))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # +-inf, clipped, where a subnormal width overflows the quotient
            return np.clip((x - self.lower) / self._width(), 0.0, 1.0)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # as in cdf
            return np.clip((self.upper - x) / self._width(), 0.0, 1.0)

    def _quantile(self, u):
        return self.lower + self._width() * u

    def _isf(self, v):
        return self.upper - self._width() * v

    def _survival_closed(self, g, t, weighted):
        w = self.upper - np.maximum(t, self.lower)
        if weighted:
            return w * (self.upper / (g + 1.0) - w / (g + 2.0))
        return w / (g + 1.0)

    def _failure_closed(self, g, t, weighted):
        w = np.minimum(t, self.upper) - self.lower
        if weighted:
            return w * (self.lower / (g + 1.0) + w / (g + 2.0))
        return w / (g + 1.0)


class Power(Distribution):
    """Power-function distribution, cdf(x) = (x / upper) ** shape on [0, upper]."""

    def __init__(self, shape: float, upper: float):
        self.shape = _parameter(shape, "shape")
        self.upper = _parameter(upper, "upper bound")
        self.support = (0.0, self.upper)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        outside = (x < 0.0) | (x > self.upper)  # NaN is not outside: it stays NaN
        xs = np.where(outside, self.upper, x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # inf at 0 for shape < 1; upper ** shape
            return np.where(outside, 0.0, self.shape * xs ** (self.shape - 1.0) / np.float64(self.upper) ** self.shape)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # inf, clipped to 1, where a subnormal upper overflows the quotient
            return np.clip(x / self.upper, 0.0, 1.0) ** self.shape

    def sf(self, x):
        return 1.0 - self.cdf(x)

    def _quantile(self, u):
        return self.upper * u ** (1.0 / self.shape)

    def _failure_closed(self, g, t, weighted):
        s = np.minimum(t, self.upper)
        cg = self.shape * g
        return s * s / (cg + 2.0) if weighted else s / (cg + 1.0)


class Rayleigh(_HazardForm):
    """Rayleigh parametrized so that sf(x) = exp(-rate * x**2)."""

    def __init__(self, rate: float):
        self.rate = _parameter(rate, "rate")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, 2.0 * self.rate * x * np.exp(-self.rate * x * x))

    def _isf_log(self, log_v):
        with np.errstate(over="ignore"):  # inf where a subnormal rate overflows the quotient
            return np.sqrt(-log_v / self.rate)

    def _log_sf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # -inf where rate * x * x overflows, and sf = 0
            return np.where(x < 0.0, 0.0, -self.rate * x * x)

    def _hazard(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, 2.0 * self.rate * x)

    def _survival_closed(self, g, t, weighted):
        lg = self.rate * g
        if weighted:
            return 1.0 / (2.0 * lg)
        # erfcx keeps the normalization by sf(t)**g exact for large t
        return math.sqrt(math.pi / (4.0 * lg)) * _special().erfcx(t * math.sqrt(lg))


class Weibull(_HazardForm):
    """Weibull with unit scale, sf(x) = exp(-x ** shape)."""

    def __init__(self, shape: float):
        self.shape = _parameter(shape, "shape")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        below = x < 0.0  # 0 ** (shape - 1) is the right limit at 0: inf, 1 or 0; NaN stays NaN
        xs = np.where(below, 1.0, x)
        with np.errstate(divide="ignore"):
            return np.where(below, 0.0, self.shape * xs ** (self.shape - 1.0) * np.exp(-(xs**self.shape)))

    def _isf_log(self, log_v):
        return (-log_v) ** (1.0 / self.shape)

    def _log_sf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # -inf where x ** shape overflows, and sf = 0
            return -(np.where(x <= 0.0, 0.0, x) ** self.shape)

    def _hazard(self, x):
        x = np.asarray(x, dtype=float)
        below = x < 0.0
        with np.errstate(divide="ignore"):
            return np.where(below, 0.0, self.shape * np.where(below, 1.0, x) ** (self.shape - 1.0))


class Gamma(Distribution):
    """Gamma with unit scale and shape parameter."""

    def __init__(self, shape: float):
        self.shape = _parameter(shape, "shape")
        # the density's right limit at 0, which the hazard shares since sf(0) = 1
        self._at_zero = math.inf if self.shape < 1.0 else 1.0 if self.shape == 1.0 else 0.0

    def _log_pdf(self, xs):
        return (self.shape - 1.0) * np.log(xs) - xs - _special().gammaln(self.shape)

    def _outside(self, x):
        """pdf and hazard at x <= 0: the right limit at 0, and 0 below it."""
        return np.where(x == 0.0, self._at_zero, 0.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        outside = x <= 0.0  # NaN is not outside: it stays NaN
        return np.where(outside, self._outside(x), np.exp(self._log_pdf(np.where(outside, 1.0, x))))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return _special().gammainc(self.shape, np.where(x <= 0.0, 0.0, x))

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return _special().gammaincc(self.shape, np.where(x <= 0.0, 0.0, x))

    def _quantile(self, u):
        return _special().gammaincinv(self.shape, u)

    def _isf(self, v):
        return _special().gammainccinv(self.shape, v)

    def _log_sf(self, x):
        x = np.asarray(x, dtype=float)
        q = self.sf(x)
        with np.errstate(divide="ignore"):
            out = np.array(np.log(q))
        deep = (q < _TINY) & np.isfinite(x)  # sf near underflow: log of its continued fraction
        if deep.any():
            out[deep] = _log_upper_gamma(self.shape, x[deep])
        return out[()]

    def _hazard(self, x):
        x = np.asarray(x, dtype=float)
        outside = x <= 0.0
        xs = np.where(outside, 1.0, x)
        return np.where(outside, self._outside(x), np.exp(self._log_pdf(xs) - self._log_sf(xs)))

    def _isf_log(self, log_v):
        log_v = np.asarray(log_v, dtype=float)
        x = np.empty_like(log_v)
        deep = log_v <= _LOG_TINY
        x[~deep] = self._isf(np.exp(log_v[~deep]))
        # Newton on log sf from its leading term -x + (shape - 1) log x - log Gamma(shape)
        lv = log_v[deep]
        y = -lv + (self.shape - 1.0) * np.log(-lv) - _special().gammaln(self.shape)
        for _ in range(6):
            y = y + (self._log_sf(y) - lv) / self._hazard(y)
        x[deep] = y
        return x[()]

    def sample_values(self, n, rng):
        return _random.gamma_row(self.shape, n, rng)

    def _sample_streams(self, seed, streams, n):
        return _random.gammas(self.shape, seed, streams, n)


_TINY = 1e-300
_LOG_TINY = math.log(_TINY)


def _log_upper_gamma(a, x):
    """log of the regularized upper incomplete gamma Q(a, x) for x > a + 1, by
    its continued fraction (modified Lentz), which holds where Q underflows."""
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / _TINY)
    d = 1.0 / b
    h = d
    for i in range(1, 300):
        an = -i * (i - a)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h = h * d * c
        if np.all(np.abs(d * c - 1.0) < 1e-16):
            break
    return a * np.log(x) - x - _special().gammaln(a) + np.log(h)


# ---------- transformation wrappers ----------


class Affine(Distribution):
    """Distribution of scale * X + shift for a base lifetime X.

    scale must be positive and shift nonnegative so the result stays a
    lifetime distribution.
    """

    def __init__(self, base: Distribution, scale: float, shift: float = 0.0):
        self.base = base
        self.scale = _parameter(scale, "scale")
        self.shift = _parameter(shift, "shift", low_allowed=True)
        lo, hi = base.support
        self.support = (self.scale * lo + self.shift, self.scale * hi + self.shift)

    def _check_tail(self, g, weighted=True):
        self.base._check_tail(g, weighted)

    def _pullback(self, x):
        return (np.asarray(x, dtype=float) - self.shift) / self.scale

    def sample_values(self, n, rng):
        return self.scale * self.base.sample_values(n, rng) + self.shift

    def _sample_streams(self, seed, streams, n):
        return self.scale * self.base._sample_streams(seed, streams, n) + self.shift

    def pdf(self, x):
        return self.base.pdf(self._pullback(x)) / self.scale

    def cdf(self, x):
        return self.base.cdf(self._pullback(x))

    def sf(self, x):
        return self.base.sf(self._pullback(x))

    def _quantile(self, u):
        return self.scale * self.base._quantile(u) + self.shift

    def _isf(self, v):
        return self.scale * self.base._isf(v) + self.shift

    def _isf_log(self, log_v):
        return self.scale * self.base._isf_log(log_v) + self.shift

    def _log_sf(self, x):
        return self.base._log_sf(self._pullback(x))

    def _hazard(self, x):
        return self.base._hazard(self._pullback(x)) / self.scale

    def _from_base(self, integral, g, t, weighted):
        """The power integral of scale * X + shift at t, by y = scale * x + shift:
        scale**2 * I_w + scale * shift * I_u, or scale * I_u unweighted, with I_w and
        I_u the base's integral(g, x, weighted) at x = (t - shift) / scale; None when
        the base's is None."""
        x = (t - self.shift) / self.scale
        unweighted = integral(g, x, False)
        if unweighted is None:
            return None
        if not weighted:
            return self.scale * unweighted
        return self.scale**2 * integral(g, x, True) + self.scale * self.shift * unweighted

    def _survival_closed(self, g, t, weighted):
        return self._from_base(self.base._survival_closed, g, t, weighted)

    def _failure_closed(self, g, t, weighted):
        return self._from_base(self.base._failure_closed, g, t, weighted)


class ProportionalHazards(_HazardForm):
    """Distribution with sf(x) = base.sf(x) ** theta (theta > 0)."""

    def __init__(self, base: Distribution, theta: float):
        self.base = base
        self.theta = _parameter(theta, "theta")
        self.support = base.support

    # sf = base.sf**theta is taken in logs, and pdf as theta * sf * base
    # hazard: where theta is small the base sf and pdf underflow long before
    # sf does, in a tail that carries mass

    def pdf(self, x):
        s = self.sf(x)
        with np.errstate(invalid="ignore"):  # the base hazard is inf at a finite top
            return np.where(s <= 0.0, 0.0, self.theta * s * self.base._hazard(x))

    def _log_sf(self, x):
        with np.errstate(over="ignore"):  # -inf where theta * log base sf overflows, and sf = 0
            return self.theta * self.base._log_sf(x)

    def _hazard(self, x):
        return self.theta * self.base._hazard(x)

    def _isf_log(self, log_v):
        # log base sf = log_v / theta
        return _split_inverse(np.asarray(log_v, dtype=float) / self.theta, self.base._isf_log, self.base._quantile)

    def _check_tail(self, g, weighted=True):
        self.base._check_tail(g * self.theta, weighted)

    def _survival_closed(self, g, t, weighted):
        # (sf(x) / sf(t))**g is (base.sf(x) / base.sf(t))**(g * theta)
        return self.base._survival_closed(g * self.theta, t, weighted)


class ProportionalReverseHazards(Distribution):
    """Distribution with cdf(x) = base.cdf(x) ** theta (theta > 0)."""

    def __init__(self, base: Distribution, theta: float):
        self.base = base
        self.theta = _parameter(theta, "theta")
        self.support = base.support

    def pdf(self, x):
        c = np.asarray(self.base.cdf(x), dtype=float)
        zero = c <= 0.0  # NaN is not zero: it stays NaN
        return np.where(zero, 0.0, self.theta * np.where(zero, 1.0, c) ** (self.theta - 1.0) * self.base.pdf(x))

    def cdf(self, x):
        return np.asarray(self.base.cdf(x), dtype=float) ** self.theta

    def sf(self, x):
        # 1 - base.cdf**theta in logs, which keeps the digits of a small sf;
        # log1p(-1) = -inf below the support bottom gives sf = 1
        with np.errstate(divide="ignore"):
            return -np.expm1(self.theta * np.log1p(-np.asarray(self.base.sf(x), dtype=float)))

    # the base gets an array even for scalar input: numpy's scalar and array
    # pow differ in the last bit
    def _quantile(self, u):
        return self.base._quantile(np.asarray(u ** (1.0 / self.theta)))

    def _isf(self, v):
        # base cdf = (1 - v)**(1/theta); its underflow only rounds x onto the support bottom
        log_c = np.log1p(-np.asarray(v, dtype=float)) / self.theta
        return _split_inverse(log_c, lambda log_c: self.base._quantile(np.exp(log_c)), self.base._isf)

    def _check_tail(self, g, weighted=True):
        # tail decay matches the base family up to the constant theta
        self.base._check_tail(g, weighted)

    def _failure_closed(self, g, t, weighted):
        # (cdf(x) / cdf(t))**g is (base.cdf(x) / base.cdf(t))**(g * theta)
        return self.base._failure_closed(g * self.theta, t, weighted)


def _split_inverse(log_q, near, far):
    """x at base probability q = exp(log_q) on the near side: near(log_q)
    where q < 1/2, else far(1 - q) on the far side, with 1 - q taken as
    -expm1(log_q), which keeps the digits that rounding q near 1 would lose.
    """
    log_q = np.asarray(log_q, dtype=float)
    x = np.empty_like(log_q)
    near_side = log_q < -math.log(2.0)
    x[near_side] = near(log_q[near_side])
    x[~near_side] = far(-np.expm1(log_q[~near_side]))
    return x[()]


def _checked_unit(u):
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0.0) & (u < 1.0)):  # positive form, so NaN fails too
        raise GwentropyError("probability argument must lie strictly inside (0, 1)")
    return u


# ---------- text form ----------

_FAMILIES: dict[str, tuple[type, list[str]]] = {
    "exponential": (Exponential, ["rate"]),
    "exp": (Exponential, ["rate"]),
    "pareto": (Pareto, ["shape", "scale"]),
    "uniform": (Uniform, ["lower", "upper"]),
    "power": (Power, ["shape", "upper"]),
    "rayleigh": (Rayleigh, ["rate"]),
    "weibull": (Weibull, ["shape"]),
    "gamma": (Gamma, ["shape"]),
}

_SPEC_RE = re.compile(r"^\s*([a-zA-Z]+)\s*\(\s*([^()]*)\s*\)\s*$")


def from_spec(text: str) -> Distribution:
    """Build a distribution from a text form like ``exp(1)`` or ``pareto(2.5, 1)``.

    The family name is case-insensitive and parameters are positional,
    comma-separated, in the constructor order documented on each class.
    """
    m = _SPEC_RE.match(text)
    if not m:
        raise GwentropyError(
            f"cannot parse distribution {text!r}; expected name(p1[, p2])"
        )
    name = m.group(1).lower()
    if name not in _FAMILIES:
        known = ", ".join(sorted(set(_FAMILIES) - {"exp"}))
        raise GwentropyError(f"unknown distribution family {name!r}; known: {known}")
    cls, params = _FAMILIES[name]
    raw = [p for p in m.group(2).split(",") if p.strip()]
    if len(raw) != len(params):
        raise GwentropyError(
            f"{name} takes {len(params)} parameter(s) ({', '.join(params)}), got {len(raw)}"
        )
    try:
        values = [float(p) for p in raw]
    except ValueError as exc:
        raise GwentropyError(f"non-numeric parameter in {text!r}") from exc
    return cls(*values)
