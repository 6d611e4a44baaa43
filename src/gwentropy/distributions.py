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
from dataclasses import dataclass

import numpy as np

from . import _ziggurat
from ._quad import failure_integral, survival_integral
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
        _require(not math.isnan(t), "hazard undefined at t=nan")  # some families' sf(nan) is 1
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
        bit for bit: one array Philox block put through _quantile (Gamma runs
        its rejection rounds on every row at once, in one workspace; Affine
        delegates to its base).  The replication engine draws here, a block
        at a time; empirical.sample draws the same values, sorted, through
        sample_values."""
        return np.asarray(self._quantile(_philox_uniforms(seed, streams, n)), dtype=float)


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
        return log_v / -self.rate

    def _log_sf(self, x):
        x = np.asarray(x, dtype=float)
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
        inside = x >= self.scale
        xs = np.where(inside, x, self.scale)
        return np.where(inside, self.shape * self.scale**self.shape / xs ** (self.shape + 1.0), 0.0)

    def cdf(self, x):
        return 1.0 - self.sf(x)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        inside = x >= self.scale
        xs = np.where(inside, x, self.scale)
        return np.where(inside, (self.scale / xs) ** self.shape, 1.0)

    def _quantile(self, u):
        return self.scale * (1.0 - u) ** (-1.0 / self.shape)

    def _isf(self, v):
        return self.scale * v ** (-1.0 / self.shape)

    def _isf_log(self, log_v):
        return self.scale * np.exp(-log_v / self.shape)

    def _log_sf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > self.scale, self.shape * np.log(self.scale / np.maximum(x, self.scale)), 0.0)

    def _hazard(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= self.scale, self.shape / np.maximum(x, self.scale), 0.0)

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
        return np.where(inside, 1.0 / self._width(), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.lower) / self._width(), 0.0, 1.0)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
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
        inside = (x >= 0.0) & (x <= self.upper)
        xs = np.where(inside, x, self.upper)
        with np.errstate(divide="ignore"):  # at 0, inf for shape < 1
            return np.where(inside, self.shape * xs ** (self.shape - 1.0) / self.upper**self.shape, 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
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
        return np.sqrt(-log_v / self.rate)

    def _log_sf(self, x):
        x = np.asarray(x, dtype=float)
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
        inside = x >= 0.0  # 0 ** (shape - 1) is the right limit at 0: inf, 1 or 0
        xs = np.where(inside, x, 1.0)
        with np.errstate(divide="ignore"):
            return np.where(inside, self.shape * xs ** (self.shape - 1.0) * np.exp(-(xs**self.shape)), 0.0)

    def _isf_log(self, log_v):
        return (-log_v) ** (1.0 / self.shape)

    def _log_sf(self, x):
        x = np.asarray(x, dtype=float)
        return -(np.where(x > 0.0, x, 0.0) ** self.shape)

    def _hazard(self, x):
        x = np.asarray(x, dtype=float)
        inside = x >= 0.0
        with np.errstate(divide="ignore"):
            return np.where(inside, self.shape * np.where(inside, x, 1.0) ** (self.shape - 1.0), 0.0)


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
        inside = x > 0.0
        return np.where(inside, np.exp(self._log_pdf(np.where(inside, x, 1.0))), self._outside(x))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return _special().gammainc(self.shape, np.where(x > 0.0, x, 0.0))

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return _special().gammaincc(self.shape, np.where(x > 0.0, x, 0.0))

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
        inside = x > 0.0
        xs = np.where(inside, x, 1.0)
        return np.where(inside, np.exp(self._log_pdf(xs) - self._log_sf(xs)), self._outside(x))

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
        out = np.empty((1, n))
        _gamma_rounds(self.shape, _GeneratorWords(rng), out)
        return out[0]

    def _sample_streams(self, seed, streams, n):
        first = (3 if self.shape < 1.0 else 2) * n  # the words of a row's boost block and first round
        words = _WordBuffer(seed, streams, first + int(first * _GAMMA_SPARE) + 4)
        out = np.empty((streams.size, n))  # after the words: the Philox rounds' buffers are gone by now
        _gamma_rounds(self.shape, words, out)
        return out


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
            return np.where(s > 0.0, self.theta * s * self.base._hazard(x), 0.0)

    def _log_sf(self, x):
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
        pos = c > 0.0
        return np.where(pos, self.theta * np.where(pos, c, 1.0) ** (self.theta - 1.0) * self.base.pdf(x), 0.0)

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


# ---------- sampling ----------


@dataclass(frozen=True)
class SeededSampler:
    """Counter-based random source keyed by (seed, stream).

    Distinct streams under one seed are statistically independent, and a
    stream's output never depends on how many other streams exist, so any
    replication layout reproduces bit for bit.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.seed & 0xFFFFFFFFFFFFFFFF, self.stream & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10 (Salmon et al., SC'11) with numpy's constants and word order
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhi(a: int, b: np.ndarray, hi: np.ndarray, scratch: list) -> np.ndarray:
    """The high word of the 128-bit product a * b, from 32-bit halves, into
    hi and returned, with three buffers of b's shape as scratch."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, low, low_mid = scratch
    np.multiply(a_hi, np.bitwise_and(b, _LO32, out=b_lo), out=hi)
    hi += np.right_shift(np.multiply(a_lo, b_lo, out=low), _S32, out=low)  # mid; no partial sum here exceeds 2**64 - 1
    b_hi = np.right_shift(b, _S32, out=b_lo)
    np.add(np.multiply(a_lo, b_hi, out=low_mid), np.bitwise_and(hi, _LO32, out=low), out=low_mid)
    hi >>= _S32
    hi += np.multiply(a_hi, b_hi, out=b_hi)
    hi += np.right_shift(low_mid, _S32, out=low_mid)
    return hi


def _philox_words(seed: int, streams: np.ndarray, first_block, blocks: int) -> np.ndarray:
    """The 4 * blocks words of each row's Philox stream from counter first_block
    on (an int, or one per row), as SeededSampler(seed, streams[i]).generator()
    emits them: for counters 1, 2, ..., the four words of each ten-round block.

    The counter enters with c1 = c2 = c3 = 0, so round 1 multiplies only the
    counters, of shape (1 or rows, blocks), and leaves c0 = k0 and c1 = 0;
    round 2's c0 product is then one Python-int multiply.  The rounds run in
    place in eight (rows, blocks) buffers of one allocation: the state, a
    high word and the scratch of _mulhi.  One allocation of that size also
    keeps glibc from trimming the heap under an engine block's temporaries,
    which then faulted their pages back in at every block."""
    rows, mask = streams.size, 0xFFFFFFFFFFFFFFFF
    m0, m1 = np.uint64(_PHILOX_M[0]), np.uint64(_PHILOX_M[1])
    counters = np.asarray(first_block, dtype=np.uint64).reshape(-1, 1) + np.arange(blocks, dtype=np.uint64)
    k0, k1 = seed & mask, streams.astype(np.uint64).reshape(rows, 1)
    c0, c1, c2, c3, hi, *scratch = np.empty((8, rows, blocks), dtype=np.uint64)
    m = len(counters)  # 1 or rows
    np.bitwise_xor(_mulhi(_PHILOX_M[0], counters, hi[:m], [t[:m] for t in scratch]), k1, out=c2)
    lo0 = counters * m0
    p0 = _PHILOX_M[0] * k0
    # Weyl key bump; uint64 arrays wrap, Python ints are masked
    k0, k1 = (k0 + _PHILOX_W[0]) & mask, k1 + np.uint64(_PHILOX_W[1])
    np.bitwise_xor(_mulhi(_PHILOX_M[1], c2, c0, scratch), np.uint64(k0), out=c0)
    np.multiply(c2, m1, out=c1)
    np.bitwise_xor(lo0 ^ np.uint64(p0 >> 64), k1, out=c2)
    c3.fill(p0 & mask)
    for _ in range(8):
        k0, k1 = (k0 + _PHILOX_W[0]) & mask, k1 + np.uint64(_PHILOX_W[1])
        # c2' goes to hi, and c0' to c0's buffer once c3' = lo(M0 * c0) is taken
        np.bitwise_xor(_mulhi(_PHILOX_M[0], c0, hi, scratch), c3, out=hi)
        hi ^= k1
        np.multiply(c0, m0, out=c3)
        np.bitwise_xor(_mulhi(_PHILOX_M[1], c2, c0, scratch), c1, out=c0)
        c0 ^= np.uint64(k0)
        np.multiply(c2, m1, out=c1)
        c2, hi = hi, c2
    del k1  # one word per row, dead from here: not beside the words, the engine's traced peak
    words = np.empty((rows, blocks, 4), dtype=np.uint64)
    words[..., 0], words[..., 1], words[..., 2], words[..., 3] = c0, c1, c2, c3
    return words.reshape(rows, 4 * blocks)


def _doubles(words: np.ndarray) -> np.ndarray:
    """numpy's next_double: the top 53 bits of each word, times 2**-53."""
    return (words >> np.uint64(11)) * 2.0**-53


def _philox_uniforms(seed: int, streams: np.ndarray, n: int) -> np.ndarray:
    """Row i is SeededSampler(seed, streams[i]).generator().random(n), bit for bit."""
    return _doubles(_philox_words(seed, streams, 1, -(-n // 4))[:, :n])


# numpy's ziggurat normal (random_standard_normal): a word w gives the layer
# idx = w & 0xFF, the sign bit 8 and rabs = the 52 bits above it; rabs < KI[idx]
# (about 99.3% of words) returns +-rabs * WI[idx] at once, anything else is
# the slow path of _slow_normals
_KI = np.array(_ziggurat.KI, dtype=np.uint64)
_WI = np.array(_ziggurat.WI_BITS, dtype=np.uint64).view(np.float64)
_FI = np.array(_ziggurat.FI_BITS, dtype=np.uint64).view(np.float64)
_RABS = np.uint64(0x000FFFFFFFFFFFFF)
_LAYER = np.uint64(0xFF)
_SIGN = np.uint64(0x100)
_ROW_KEY = 1 << 40  # a slow word's key is row * _ROW_KEY + column
_NO_KEY = np.iinfo(np.int64).max
_SCAN_WORDS = 16384  # words per step of _slow_keys


def _fast_normals(w: np.ndarray, out: np.ndarray, layer: np.ndarray) -> np.ndarray:
    """The fast-path normal of each word of w, +-rabs * WI[idx], into out and
    returned; w and layer, an int64 array of w's size, are overwritten."""
    np.bitwise_and(w, _LAYER, out=layer.view(np.uint64))
    _WI.take(layer, out=out, mode="clip")
    negative = np.bitwise_and(w, _SIGN, out=layer.view(np.uint64)).astype(bool)
    np.right_shift(w, np.uint64(9), out=w)
    w &= _RABS
    np.multiply(w, out, out=out)  # rabs as a double, times WI[idx]
    return np.negative(out, out=out, where=negative)


def _slow_keys(rows: np.ndarray, start: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Keys of the words of row block `words` (row i of it is row rows[i],
    from column start[i] on) that miss the ziggurat's fast path, scanned a
    few rows at a time so no temporary is the size of the block."""
    keys = []
    step = max(1, _SCAN_WORDS // words.shape[1])
    for lo in range(0, rows.size, step):
        part = words[lo : lo + step]
        layer = (part & _LAYER).view(np.intp)  # take would copy uint64 indices to intp
        r, c = np.nonzero(((part >> np.uint64(9)) & _RABS) >= _KI.take(layer))
        keys.append(rows[lo + r] * _ROW_KEY + start[lo + r] + c)
    return np.concatenate(keys)


def _buffers(k: np.ndarray, out, scratch) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """out and the (int64, uint64) scratch pair for k.sum() values, new where not given."""
    size = int(k.sum())
    if scratch is None:
        scratch = (np.empty(size, dtype=np.int64), np.empty(size, dtype=np.uint64))
    return (np.empty(size) if out is None else out), scratch


class _WordBuffer:
    """Each row's Philox words from the start of its stream, grown row by row
    where it stopped when a row asks for more, and the sorted keys of the
    words that miss the ziggurat's fast path.

    doubles and normals write into a given out and gather their words through
    a given scratch pair (_gamma_rounds' workspace), or into new arrays."""

    def __init__(self, seed: int, streams: np.ndarray, width: int):
        rows, blocks = streams.size, -(-width // 4)
        self.seed, self.streams = seed, streams
        self.words = _philox_words(seed, streams, 1, blocks)
        self.have = np.full(rows, 4 * blocks)
        self.slow = np.append(_slow_keys(np.arange(rows), np.zeros(rows, dtype=np.int64), self.words), _NO_KEY)

    def reserve(self, rows: np.ndarray, upto: np.ndarray) -> None:
        """Make words [0, upto[i]) of row rows[i] readable."""
        short = upto > self.have[rows]
        if not short.any():
            return
        rows, start = rows[short], self.have[rows[short]]
        blocks = -(-int((upto[short] - start).max()) // 4)
        chunk = _philox_words(self.seed, self.streams[rows], start // 4 + 1, blocks)
        grow = int(start.max()) + 4 * blocks - self.words.shape[1]
        if grow > 0:
            self.words = np.pad(self.words, ((0, 0), (0, grow)))
        self.words[rows[:, None], start[:, None] + np.arange(4 * blocks)] = chunk
        self.have[rows] = start + 4 * blocks
        self.slow = np.sort(np.concatenate((self.slow, _slow_keys(rows, start, chunk))))

    def at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Word cols[i] of row rows[i]."""
        return self.words.take(rows * self.words.shape[1] + cols)

    def _gather(self, rows, pos, k, idx, w, skips=None) -> np.ndarray:
        """Into w, one word for each of k[i] > 0 outputs of row rows[i],
        flattened row by row: consecutive words from pos[i] on, but where skips
        (a row's place in rows, an output, the extra words before it) adds
        some.  idx, as long, holds the flat word indices: a running sum of
        steps of 1, the skips, and at each row's first output the jump from
        the previous row's last word."""
        first = rows * self.words.shape[1] + pos
        last = first + (k - 1)
        starts = np.cumsum(k) - k
        idx, w = idx[: starts[-1] + k[-1]], w[: starts[-1] + k[-1]]
        idx.fill(1)
        if skips is not None:
            np.add.at(last, skips[0], skips[2])
        first[1:] -= last[:-1]
        idx[starts] = first
        if skips is not None:
            np.add.at(idx, skips[1], skips[2])
        return self.words.take(np.cumsum(idx, out=idx), out=w, mode="clip")

    def doubles(self, rows: np.ndarray, pos: np.ndarray, k: np.ndarray, out=None, scratch=None) -> np.ndarray:
        """k[i] > 0 doubles of row rows[i] from word pos[i] on, flattened row by row."""
        self.reserve(rows, pos + k)
        out, (idx, w) = _buffers(k, out, scratch)
        w = np.right_shift(self._gather(rows, pos, k, idx, w), np.uint64(11), out=w)
        return np.multiply(w, 2.0**-53, out=out)  # numpy's next_double, as _doubles

    def normals(
        self, rows: np.ndarray, pos: np.ndarray, k: np.ndarray, out=None, scratch=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """k[i] > 0 standard normals of row rows[i] from word pos[i] on, as
        numpy's Generator.standard_normal draws them, flattened row by row;
        and the word position after each row's last one.

        Each row's normals are fast-path words between slow words; the slow
        words are taken in increasing word order, all rows at once, and then
        every normal's word is gathered in one pass, a slow word's normal
        replaced afterwards.
        """
        out, (idx, w) = _buffers(k, out, scratch)
        end = np.cumsum(k)
        dst, p = end - k, pos.copy()
        skips, slow = [], []  # (row place, output, extra words before it); (output, normal)
        live = np.arange(rows.size)
        while live.size:
            need = end[live] - dst[live]
            self.reserve(rows[live], p[live] + need)
            key = rows[live] * _ROW_KEY + p[live]
            run = np.subtract(self.slow[np.searchsorted(self.slow, key)], key, out=key)  # to the next slow word
            hit = run < need
            np.minimum(run, need, out=run)
            p[live] += run
            dst[live] += run
            live = live[hit]
            if live.size:
                made, value, used = self._slow_normals(rows[live], p[live])
                slow.append((dst[live[made]], value[made]))
                # the next output's word is `used` on, less the one a normal made here takes
                skips.append((live, dst[live] + made, used - made))
                dst[live] += made
                p[live] += used
                live = live[dst[live] < end[live]]
        if skips:
            row, at, extra = (np.concatenate(col) for col in zip(*skips))
            inside = at < end[row]  # a skip after a row's last normal moves no word of it
            skips = row[inside], at[inside], extra[inside]
        _fast_normals(self._gather(rows, pos, k, idx, w, skips or None), out, idx[: out.size])
        for at, value in slow:
            out[at] = value
        return out, p

    def _slow_normals(self, rows: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The slow path of the ziggurat word at pos[i] of row rows[i]: whether
        it makes a normal, the normal, and the words it reads.

        exp and log1p come from math, the libm functions numpy's C calls.
        """
        self.reserve(rows, pos + 2)
        w = self.at(rows, pos)
        idx = (w & _LAYER).astype(np.intp)
        rabs = (w >> np.uint64(9)) & _RABS
        x = _fast_normals(w, np.empty(w.size), np.empty(w.size, dtype=np.int64))
        # the wedge of layer idx > 0: one double against the density
        u = _doubles(self.at(rows, pos + 1))
        density = np.array([math.exp(e) for e in (-0.5 * x * x).tolist()])
        made = (_FI[idx - 1] - _FI[idx]) * u + _FI[idx] < density
        used = np.full(rows.size, 2)
        # the tail beyond R of layer 0: pairs of doubles until one is accepted
        tail = np.flatnonzero(idx == 0)
        made[tail], used[tail] = True, 1
        while tail.size:
            at = pos[tail] + used[tail]
            self.reserve(rows[tail], at + 2)
            a = _doubles(self.at(rows[tail], at)).tolist()
            b = _doubles(self.at(rows[tail], at + 1)).tolist()
            xx = np.array([-_ziggurat.INV_R * math.log1p(-v) for v in a])
            yy = np.array([-math.log1p(-v) for v in b])
            ok = yy + yy > xx * xx
            beyond = _ziggurat.R + xx[ok]
            # the sign is bit 8 of rabs, not the word's sign bit
            x[tail[ok]] = np.where((rabs[tail[ok]] >> np.uint64(8)) & np.uint64(1), -beyond, beyond)
            used[tail] += 2
            tail = tail[~ok]
        return made, x, used


class _GeneratorWords:
    """_gamma_rounds' one row of words, drawn from a Generator as asked for."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def doubles(self, rows, pos, k, out, scratch):
        return self.rng.random(out=out)

    def normals(self, rows, pos, k, out, scratch):
        return self.rng.standard_normal(out=out), pos


# spare words in a row's first buffer, as a share of its boost block and first
# round: later rounds and slow ziggurat words mostly fit in them, and a row
# that reads past them is extended where it stopped
_GAMMA_SPARE = 0.125


def _gamma_rounds(shape: float, words, out: np.ndarray) -> None:
    """Fill the C-order (rows, n) out with Gamma(shape, 1) draws by the
    squeeze-free Marsaglia-Tsang method, row i from row i of words (a
    _WordBuffer, or _GeneratorWords on one Generator).  Vectorized rejection
    in rounds: each reads a row's normals, then its doubles, one of each per
    value the row lacks, so a row is a pure function of its own words.

    The rounds' per-value arrays are rows of one workspace, written in place:
    the normals z, the doubles u, an int64 and a uint64 row through which a
    _WordBuffer gathers its words and which then hold v = (1 + c z)**3 and the
    accept test's sums, and for shape < 1 the boost block.  The first round
    draws for every value, so it needs no index array and takes out itself
    as scratch; later ones draw for the few values still missing."""
    rows, n = out.shape
    boosted = shape < 1.0
    work = np.empty((5 if boosted else 4, rows * n))
    idx, w = work[2].view(np.int64), work[3].view(np.uint64)  # v's and a's rows
    flat = out.reshape(-1)  # a view, out being C-order
    pos = np.zeros(rows, dtype=np.int64)
    q = shape
    if boosted:
        # Gamma(q) = Gamma(q + 1) * U ** (1/q); consume the boost block first
        boost = words.doubles(np.arange(rows), pos, np.full(rows, n), work[4], (idx, w))
        boost **= 1.0 / q
        pos += n
        q = q + 1.0
    d = q - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    todo = None  # every value in the first round, then the indices still to draw
    while todo is None or todo.size:
        if todo is None:
            live, k = np.arange(rows), np.full(rows, n)
        else:
            k = np.bincount(todo // n, minlength=rows)
            live = np.flatnonzero(k)
            k = k[live]
        m = k.sum()
        z, u, v, a = work[:4, :m]
        scratch = (idx[:m], w[:m])
        pos[live] = words.normals(live, pos[live], k, z, scratch)[1]
        words.doubles(live, pos[live], k, u, scratch)
        pos[live] += k
        # accept v = (1 + c z)**3 > 0 where log u < z * z / 2 + d (1 - v + log v)
        np.multiply(z, c, out=v)
        v += 1.0
        v **= 3
        ok = v > 0.0
        v[~ok] = 1.0
        np.multiply(z, 0.5, out=a)
        a *= z
        np.subtract(1.0, v, out=z)
        z += np.log(v, out=flat if todo is None else None)
        z *= d
        a += z
        accept = np.less(np.log(u, out=u), a)
        accept &= ok
        if todo is None:
            np.multiply(v, d, out=flat)  # where rejected, a later round writes over it
            todo = np.flatnonzero(~accept)
        else:
            flat[todo[accept]] = d * v[accept]
            todo = todo[~accept]
    if boosted:
        flat *= boost


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
