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

wmrl(t) is E[(X^2 - t^2)/2 | X > t] written as an integral of x * sf(x)/sf(t)
from t; wmit(t) is the mirrored integral of x * cdf(x)/cdf(t) up to t.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from scipy import special

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


# ---------- base class ----------


class Distribution:
    """Continuous nonnegative lifetime distribution."""

    support: tuple[float, float] = (0.0, math.inf)

    # subclasses implement pdf, cdf, sf and the unchecked inverse _quantile
    # (plus _isf where 1 - u would lose precision); a family with an
    # infinite tail also gives _log_sf, _hazard and _isf_log, which hold
    # where sf underflows: ProportionalHazards with a small theta reaches there

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
        _require(float(self.sf(t)) > 0.0, f"hazard undefined at t={t}: survival is zero")
        return float(self._hazard(t))

    def reverse_hazard(self, t: float) -> float:
        """Reversed rate pdf(t) / cdf(t); defined where cdf(t) > 0."""
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
    def _survival_closed(self, g: float, t: float, weighted: bool) -> float | None:
        return None

    def _failure_closed(self, g: float, t: float, weighted: bool) -> float | None:
        return None

    def _check_tail(self, g: float, weighted: bool = True) -> None:
        """Raise when the integral of w(x) * sf(x)**g diverges at infinity."""

    def sample_values(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n values by quantile inversion on a single uniform block.

        rng.random draws from [0, 1); a zero maps to the support bottom.
        """
        return np.asarray(self._quantile(rng.random(n)), dtype=float)

    def _sample_streams(self, seed: int, streams: np.ndarray, n: int) -> np.ndarray:
        """Row i is sample_values(n, SeededSampler(seed, streams[i]).generator()):
        one Philox block for inversion, stream by stream for a sampler of its own."""
        if type(self).sample_values is not Distribution.sample_values:
            return np.stack([self.sample_values(n, rng) for rng in _stream_generators(seed, streams)])
        return np.asarray(self._quantile(_philox_uniforms(seed, streams, n)), dtype=float)


# ---------- families ----------


class Exponential(Distribution):
    """Exponential with rate parameter, sf(x) = exp(-rate * x)."""

    def __init__(self, rate: float):
        _require(rate > 0.0, "rate must be positive")
        self.rate = float(rate)
        self.support = (0.0, math.inf)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, self.rate * np.exp(-self.rate * x))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, -np.expm1(-self.rate * x))

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 1.0, np.exp(-self.rate * x))

    def _quantile(self, u):
        # the bits of -log1p(-u) / rate, one array operation fewer
        return np.log1p(-u) / -self.rate

    def _isf(self, v):
        return self._isf_log(np.log(v))

    def _isf_log(self, log_v):
        return -log_v / self.rate

    def _log_sf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, -self.rate * x)

    def _hazard(self, x):
        return np.where(np.asarray(x, dtype=float) < 0.0, 0.0, self.rate)

    def hazard(self, t):
        _require(t >= 0.0, "hazard defined on t >= 0")
        return self.rate

    def _survival_closed(self, g, t, weighted):
        lg = self.rate * g
        return (1.0 + t * lg) / lg**2 if weighted else 1.0 / lg


class Pareto(Distribution):
    """Pareto with tail index `shape` and lower endpoint `scale`."""

    def __init__(self, shape: float, scale: float):
        _require(shape > 0.0, "shape must be positive")
        _require(scale > 0.0, "scale must be positive")
        self.shape = float(shape)
        self.scale = float(scale)
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
        s = max(t, self.scale)
        ag = self.shape * g
        return s * s / (ag - 2.0) if weighted else s / (ag - 1.0)


class Uniform(Distribution):
    """Uniform on [lower, upper] with lower >= 0."""

    def __init__(self, lower: float, upper: float):
        _require(lower >= 0.0, "lower bound must be nonnegative")
        _require(upper > lower, "upper bound must exceed lower bound")
        self.lower = float(lower)
        self.upper = float(upper)
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
        w = self.upper - max(t, self.lower)
        if weighted:
            return w * (self.upper / (g + 1.0) - w / (g + 2.0))
        return w / (g + 1.0)

    def _failure_closed(self, g, t, weighted):
        w = min(t, self.upper) - self.lower
        if weighted:
            return w * (self.lower / (g + 1.0) + w / (g + 2.0))
        return w / (g + 1.0)


class Power(Distribution):
    """Power-function distribution, cdf(x) = (x / upper) ** shape on [0, upper]."""

    def __init__(self, shape: float, upper: float):
        _require(shape > 0.0, "shape must be positive")
        _require(upper > 0.0, "upper bound must be positive")
        self.shape = float(shape)
        self.upper = float(upper)
        self.support = (0.0, self.upper)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= self.upper)
        xs = np.where(inside, x, self.upper)
        return np.where(inside, self.shape * xs ** (self.shape - 1.0) / self.upper**self.shape, 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip(x / self.upper, 0.0, 1.0) ** self.shape

    def sf(self, x):
        return 1.0 - self.cdf(x)

    def _quantile(self, u):
        return self.upper * u ** (1.0 / self.shape)

    def _failure_closed(self, g, t, weighted):
        s = min(t, self.upper)
        cg = self.shape * g
        return s * s / (cg + 2.0) if weighted else s / (cg + 1.0)


class Rayleigh(Distribution):
    """Rayleigh parametrized so that sf(x) = exp(-rate * x**2)."""

    def __init__(self, rate: float):
        _require(rate > 0.0, "rate must be positive")
        self.rate = float(rate)
        self.support = (0.0, math.inf)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, 2.0 * self.rate * x * np.exp(-self.rate * x * x))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, -np.expm1(-self.rate * x * x))

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 1.0, np.exp(-self.rate * x * x))

    def _quantile(self, u):
        return np.sqrt(-np.log1p(-u) / self.rate)

    def _isf(self, v):
        return self._isf_log(np.log(v))

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
        return math.sqrt(math.pi / (4.0 * lg)) * special.erfcx(t * math.sqrt(lg))


class Weibull(Distribution):
    """Weibull with unit scale, sf(x) = exp(-x ** shape)."""

    def __init__(self, shape: float):
        _require(shape > 0.0, "shape must be positive")
        self.shape = float(shape)
        self.support = (0.0, math.inf)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = x > 0.0
        xs = np.where(inside, x, 1.0)
        return np.where(inside, self.shape * xs ** (self.shape - 1.0) * np.exp(-(xs**self.shape)), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        xs = np.where(x > 0.0, x, 0.0)
        return -np.expm1(-(xs**self.shape))

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        xs = np.where(x > 0.0, x, 0.0)
        return np.exp(-(xs**self.shape))

    def _quantile(self, u):
        return (-np.log1p(-u)) ** (1.0 / self.shape)

    def _isf(self, v):
        return self._isf_log(np.log(v))

    def _isf_log(self, log_v):
        return (-log_v) ** (1.0 / self.shape)

    def _log_sf(self, x):
        x = np.asarray(x, dtype=float)
        return -(np.where(x > 0.0, x, 0.0) ** self.shape)

    def _hazard(self, x):
        x = np.asarray(x, dtype=float)
        inside = x > 0.0
        return np.where(inside, self.shape * np.where(inside, x, 1.0) ** (self.shape - 1.0), 0.0)


class Gamma(Distribution):
    """Gamma with unit scale and shape parameter."""

    def __init__(self, shape: float):
        _require(shape > 0.0, "shape must be positive")
        self.shape = float(shape)
        self.support = (0.0, math.inf)

    def _log_pdf(self, xs):
        return (self.shape - 1.0) * np.log(xs) - xs - special.gammaln(self.shape)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = x > 0.0
        return np.where(inside, np.exp(self._log_pdf(np.where(inside, x, 1.0))), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return special.gammainc(self.shape, np.where(x > 0.0, x, 0.0))

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return special.gammaincc(self.shape, np.where(x > 0.0, x, 0.0))

    def _quantile(self, u):
        return special.gammaincinv(self.shape, u)

    def _isf(self, v):
        return special.gammainccinv(self.shape, v)

    def _log_sf(self, x):
        x = np.asarray(x, dtype=float)
        q = self.sf(x)
        with np.errstate(divide="ignore"):
            out = np.array(np.log(q))
        deep = (q < _TINY) & np.isfinite(x)  # sf near underflow: log of its continued fraction
        out[deep] = _log_upper_gamma(self.shape, x[deep])
        return out[()]

    def _hazard(self, x):
        x = np.asarray(x, dtype=float)
        inside = x > 0.0
        xs = np.where(inside, x, 1.0)
        return np.where(inside, np.exp(self._log_pdf(xs) - self._log_sf(xs)), 0.0)

    def _isf_log(self, log_v):
        log_v = np.asarray(log_v, dtype=float)
        x = np.empty_like(log_v)
        deep = log_v <= _LOG_TINY
        x[~deep] = self._isf(np.exp(log_v[~deep]))
        # Newton on log sf from its leading term -x + (shape - 1) log x - log Gamma(shape)
        lv = log_v[deep]
        y = -lv + (self.shape - 1.0) * np.log(-lv) - special.gammaln(self.shape)
        for _ in range(6):
            y = y + (self._log_sf(y) - lv) / self._hazard(y)
        x[deep] = y
        return x[()]

    def sample_values(self, n, rng):
        return _gamma_rejection(self.shape, n, rng)


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
    return a * np.log(x) - x - special.gammaln(a) + np.log(h)


# ---------- transformation wrappers ----------


class Affine(Distribution):
    """Distribution of scale * X + shift for a base lifetime X.

    scale must be positive and shift nonnegative so the result stays a
    lifetime distribution.
    """

    def __init__(self, base: Distribution, scale: float, shift: float = 0.0):
        _require(scale > 0.0, "scale must be positive")
        _require(shift >= 0.0, "shift must be nonnegative")
        self.base = base
        self.scale = float(scale)
        self.shift = float(shift)
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


class ProportionalHazards(Distribution):
    """Distribution with sf(x) = base.sf(x) ** theta (theta > 0)."""

    def __init__(self, base: Distribution, theta: float):
        _require(theta > 0.0, "theta must be positive")
        self.base = base
        self.theta = float(theta)
        self.support = base.support

    # sf = base.sf**theta is taken in logs, and pdf as theta * sf * base
    # hazard: where theta is small the base sf and pdf underflow long before
    # sf does, in a tail that carries mass

    def pdf(self, x):
        s = self.sf(x)
        with np.errstate(invalid="ignore"):  # the base hazard is inf at a finite top
            return np.where(s > 0.0, self.theta * s * self.base._hazard(x), 0.0)

    def cdf(self, x):
        return 1.0 - self.sf(x)

    def sf(self, x):
        return np.exp(self._log_sf(x))

    def _log_sf(self, x):
        return self.theta * self.base._log_sf(x)

    def _hazard(self, x):
        return self.theta * self.base._hazard(x)

    def _quantile(self, u):
        return self._isf_log(np.log1p(-np.asarray(u, dtype=float)))

    def _isf(self, v):
        return self._isf_log(np.log(v))

    def _isf_log(self, log_v):
        # log base sf = log_v / theta
        return _split_inverse(np.asarray(log_v, dtype=float) / self.theta, self.base._isf_log, self.base._quantile)

    def _check_tail(self, g, weighted=True):
        self.base._check_tail(g * self.theta, weighted)


class ProportionalReverseHazards(Distribution):
    """Distribution with cdf(x) = base.cdf(x) ** theta (theta > 0)."""

    def __init__(self, base: Distribution, theta: float):
        _require(theta > 0.0, "theta must be positive")
        self.base = base
        self.theta = float(theta)
        self.support = base.support

    def pdf(self, x):
        c = np.asarray(self.base.cdf(x), dtype=float)
        pos = c > 0.0
        return np.where(pos, self.theta * np.where(pos, c, 1.0) ** (self.theta - 1.0) * self.base.pdf(x), 0.0)

    def cdf(self, x):
        return np.asarray(self.base.cdf(x), dtype=float) ** self.theta

    def sf(self, x):
        return 1.0 - self.cdf(x)

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


def _stream_generators(seed: int, streams: np.ndarray):
    """SeededSampler(seed, s).generator() for each s in turn, as one reused Generator.

    Each stream restarts the one Philox in the state a new one starts in
    (counter 0, empty buffer), without the cost of building one.  Consume
    each generator before taking the next.
    """
    rng = SeededSampler(seed).generator()
    start = rng.bit_generator.state
    for stream in streams.tolist():
        start["state"]["key"][1] = stream
        rng.bit_generator.state = start
        yield rng


# Philox4x64-10 (Salmon et al., SC'11) with numpy's constants and word order
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product a * b, from 32-bit halves."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, b_hi = b & _LO32, b >> _S32
    mid = a_hi * b_lo + ((a_lo * b_lo) >> _S32)  # no partial sum here exceeds 2**64 - 1
    low_mid = a_lo * b_hi + (mid & _LO32)
    return a_hi * b_hi + (mid >> _S32) + (low_mid >> _S32), np.uint64(a) * b


def _philox_uniforms(seed: int, streams: np.ndarray, n: int) -> np.ndarray:
    """Row i is SeededSampler(seed, streams[i]).generator().random(n), bit for bit.

    numpy's Philox emits, for counters 1, 2, ..., the four words of each
    ten-round block in order, and random() maps a word w to (w >> 11) * 2**-53.
    """
    rows, blocks = streams.size, -(-n // 4)
    c0 = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), (rows, 1))
    c1 = c2 = c3 = np.zeros_like(c0)
    k0, k1 = seed & 0xFFFFFFFFFFFFFFFF, streams.astype(np.uint64).reshape(rows, 1)
    for i in range(10):
        if i:  # Weyl key bump; uint64 arrays wrap, Python ints are masked
            k0, k1 = (k0 + _PHILOX_W[0]) & 0xFFFFFFFFFFFFFFFF, k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3), axis=-1).reshape(rows, 4 * blocks)[:, :n]
    return (words >> np.uint64(11)) * 2.0**-53


def _gamma_rejection(shape: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Gamma(shape, 1) sampler via the squeeze-free Marsaglia-Tsang method.

    Vectorized rejection in rounds; the draw order depends only on the
    acceptance pattern, so output is a pure function of the stream state.
    """
    q = shape
    boost = None
    if q < 1.0:
        # Gamma(q) = Gamma(q + 1) * U ** (1/q); consume the boost block first
        boost = rng.random(n) ** (1.0 / q)
        q = q + 1.0
    d = q - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n, dtype=float)
    todo = np.arange(n)
    while todo.size:
        z = rng.standard_normal(todo.size)
        u = rng.random(todo.size)
        v = (1.0 + c * z) ** 3
        pos = v > 0.0
        vs = np.where(pos, v, 1.0)
        accept = pos & (np.log(u) < 0.5 * z * z + d * (1.0 - vs + np.log(vs)))
        out[todo[accept]] = d * vs[accept]
        todo = todo[~accept]
    if boost is not None:
        out *= boost
    return out


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
