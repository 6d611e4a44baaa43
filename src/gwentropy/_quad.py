"""The power integrals behind every measure: closed form or quadrature.

All integrals reduce to one of two shapes:

* survival type: integral of w(x) * (sf(x) / sf(t))**g over [max(t, lo), hi]
* failure type:  integral of w(x) * (cdf(x) / cdf(t))**g over [lo, t]

with weight w(x) = x (weighted measures) or w(x) = 1.  ``survival_integral``
and ``failure_integral`` are the one place that checks the domain and the
method and picks the route: a family's own closed form
(``Distribution._survival_closed`` / ``_failure_closed``) or quadrature.

Quadrature is always taken in probability space by ``window_integral``:
v = sf(x) (or cdf(x)) maps the window X > t (or X <= t) onto the finite
(0, sf(t)] (or (0, cdf(t)]) on any support, with at worst algebraic
singularities at the ends.  ``window_integral`` is also the one integral
behind the Shannon and log-sum bounds in ``checks``.  ``integrate`` runs
double-exponential (tanh-sinh) quadrature (Takahasi & Mori, 1974) with
Bailey's error estimate (Bailey, Jeyabalan & Li, 2005), written here in numpy
on scipy's node tables and stopping rule: levels 0-3 of an elementwise
integrand are one vectorized call, and each further level one more.  An
element it does not bring to ``REL_TOL`` falls back to the adaptive
``scipy.integrate.quad``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DivergenceError, GwentropyError, QuadratureError

REL_TOL = 1e-10  # the only stopping rule: an absolute floor would govern integrals near 0
MAX_SUBDIVISIONS = 200  # of the quad fallback

_METHODS = ("auto", "closed", "quadrature")

# the first stop is after level 3: an error estimate from levels 0-2 alone
# can be a hundred times too small where a window is split; past level 10 an
# element goes to quad
_MIN_LEVEL, _MAX_LEVEL = 3, 10
_EPS = np.finfo(float).eps
# level k steps t = j h, h = _H0 / 2**k, up to j = 8 * 2**k (odd j only above
# level 0); _H0 puts the last abscissa complement near 4 * the smallest normal
_H0 = math.asinh(math.log(2.0 / (4.0 * np.finfo(float).tiny) - 1.0) / math.pi) / 8


def _level_nodes(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Abscissa complements 1 - tanh(u2) (exact near the limits) and weights
    of level k on [-1, 1], u2 = pi/2 sinh(j h)."""
    jh = (np.arange(9) if k == 0 else np.arange(1, 8 * 2**k + 1, 2)) * (_H0 / 2**k)
    u2 = np.pi / 2 * np.sinh(jh)
    with np.errstate(over="ignore"):  # the outermost weights underflow to 0
        w = np.pi / 2 * np.cosh(jh) / np.cosh(u2) ** 2
    if k == 0:
        w[0] /= 2  # the centre is a node of both halves
    return 1 / (np.exp(u2) * np.cosh(u2)), w


_LEVELS = [_level_nodes(k) for k in range(_MAX_LEVEL + 1)]
# levels 0 to _MIN_LEVEL in one table, and where levels 0-1 and 0-2 end in it
_FIRST = tuple(np.concatenate(parts) for parts in zip(*_LEVELS[: _MIN_LEVEL + 1]))
_FIRST_ENDS = np.cumsum([len(c) for c, _ in _LEVELS[:_MIN_LEVEL]])[1:]


def integrate(f: Callable[..., np.ndarray], a, b, args: tuple = ()) -> np.ndarray:
    """Integrals of the elementwise f(x, *args) over finite [a, b], one per
    element of the broadcast a, b and args, under the shared tolerance.

    f is called with x of shape (elements, nodes) and each arg of shape
    (elements, 1): once for levels 0-3, then once per further level for the
    elements still short of REL_TOL; an element still short after level 10
    is integrated again by quad.  f is only evaluated strictly inside (a, b):
    a node that rounds onto a limit gets zero weight and is evaluated at the
    midpoint.  A value of f that is not finite raises QuadratureError.
    """
    a, b, *args = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float), *args)
    shape = a.shape
    a, b, *args = (np.reshape(v, (-1, 1)) for v in (a, b, *args))

    def inside(x, a, b, *args):
        edge = (x <= a) | (x >= b)
        fx = f(np.where(edge, (a + b) / 2.0, x), *args)
        bad = np.size(fx) - np.count_nonzero(np.isfinite(fx))
        if bad:
            raise QuadratureError(f"integrand is not finite at {bad} of {np.size(fx)} nodes")
        return np.where(edge, 0.0, fx)

    out = np.empty(a.shape[0])
    live = np.arange(a.shape[0])
    # per element and half (right, left): the signed abscissa of the outermost
    # weighted node so far, and its |f w|, the d4 term of the error estimate
    reach = np.full((live.size, 2), -np.inf)
    tail = np.full((live.size, 2), np.nan)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for level in range(_MIN_LEVEL, _MAX_LEVEL + 1):
            c, w = _FIRST if level == _MIN_LEVEL else _LEVELS[level]
            n, half = live.size, (b - a) / 2.0
            x = np.concatenate((b - half * c, a + half * c), axis=1)
            wj = np.where((x <= a) | (x >= b), 0.0, np.concatenate((w, w)) * half)
            fw = inside(x, a, b, *args) * wj

            # the outermost weighted node of each half at this level, by flat index
            key = np.where((wj != 0.0).reshape(n, 2, -1), x.reshape(n, 2, -1) * [[1.0], [-1.0]], -np.inf)
            at = np.argmax(key, axis=2) + key.shape[2] * np.arange(2 * n).reshape(n, 2)
            further = np.take(key, at) > reach
            reach = np.where(further, np.take(key, at), reach)
            tail = np.where(further, np.abs(np.take(fw, at)), tail)

            # Euler-Maclaurin sums at this level (s) and the two before it
            h = _H0 / 2**level
            if level == _MIN_LEVEL:
                by_half = fw.reshape(n, 2, -1)
                s2 = np.sum(by_half[..., : _FIRST_ENDS[0]].reshape(n, -1), axis=-1) * (4 * h)
                s1 = np.sum(by_half[..., : _FIRST_ENDS[1]].reshape(n, -1), axis=-1) * (2 * h)
                s = np.sum(fw, axis=-1) * h
            else:
                s2, s1, s = s1, s, s / 2 + np.sum(fw, axis=-1) * h
            # Bailey's error estimate, max(d1**(log d1 / log d2), d1**2, d3,
            # d4) clipped to [eps |s|, d1]
            d1, d2 = np.abs(s - s1), np.abs(s - s2)
            d3 = _EPS * np.max(np.abs(fw), axis=-1)
            err = np.max([np.where(d1 > 0, d1 ** (np.log(d1) / np.log(d2)), 0), d1**2, d3, np.max(tail, axis=-1)], axis=0)
            done = np.clip(err, _EPS * np.abs(s), d1) / np.abs(s) < REL_TOL
            out[live[done]] = s[done]

            keep = ~done
            live, a, b, reach, tail, s, s1 = live[keep], a[keep], b[keep], reach[keep], tail[keep], s[keep], s1[keep]
            args = [arg[keep] for arg in args]
            if not live.size:
                break
    if live.size:  # not converged by the last level: the quad fallback
        from scipy.integrate import quad

        for i, row in zip(live, zip(a[:, 0], b[:, 0], *(arg[:, 0] for arg in args))):
            out[i] = quad(
                lambda x: float(inside(np.asarray(x), *row)), row[0], row[1], epsabs=0.0, epsrel=REL_TOL, limit=MAX_SUBDIVISIONS
            )[0]
    return out.reshape(shape)


def _closed(method: str, closed_fn, *args) -> float | None:
    """The closed value for `method`, or None when quadrature should run."""
    if method not in _METHODS:
        raise GwentropyError(f"unknown method {method!r}")
    if method == "quadrature":
        return None
    value = closed_fn(*args)
    if value is None and method == "closed":
        raise GwentropyError("no closed form for this family")
    return value


def survival_integral(d, g: float, t: float = 0.0, method: str = "auto", weighted: bool = True) -> float:
    """Integral of w(x) * (sf(x)/sf(t))**g from max(t, support bottom) up."""
    if not float(d.sf(t)) > 0.0:
        raise GwentropyError(f"survival is zero at t={t}")
    d._check_tail(g, weighted=weighted)
    # sf is 1 at and below the support bottom, so clamping t there is exact
    start = max(t, d.support[0])
    closed = _closed(method, d._survival_closed, g, start, weighted)
    if closed is not None:
        return closed
    return _power_window(d, "survival", start, g, weighted)


def failure_integral(d, g: float, t: float | None = None, method: str = "auto", weighted: bool = True) -> float:
    """Integral of w(x) * (cdf(x)/cdf(s))**g from the support bottom to s,
    where s = min(t, support top), or s = support top when t is None."""
    hi = d.support[1]
    if t is None:
        if math.isinf(hi):
            raise DivergenceError("failure-side measure diverges on an infinite support")
        s = hi
    else:
        s = min(float(t), hi)
        if not float(d.cdf(s)) > 0.0:
            raise GwentropyError(f"cdf is zero at t={t}")
    closed = _closed(method, d._failure_closed, g, s, weighted)
    if closed is not None:
        return closed
    return _power_window(d, "failure", s, g, weighted)


def _power_window(d, side: str, t: float, g: float, weighted: bool) -> float:
    """The power integral over the window at t as the integral of
    w(x) * (v / F(t))**g / pdf(x) over v = F(x) in (0, F(t)], F = sf or cdf."""
    log_w = math.log(float(d.sf(t) if side == "survival" else d.cdf(t)))

    def integrand(x, v):
        fx = d.pdf(x)
        # pdf is 0 only where x rounds onto or past a support end: a finite
        # one, or inf where the isf of a heavy tail overflows for v near 0
        ok = fx > 0.0
        p = np.where(ok, np.exp(g * (np.log(v) - log_w)) / np.where(ok, fx, 1.0), 0.0)
        return np.where(ok, x, 0.0) * p if weighted else p

    return window_integral(d, side, t, integrand)


def window_integral(d, side: str, t: float, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
    """Integral of the elementwise fn(x(v), v) over v in (0, w], w = sf(t) on
    the survival side and cdf(t) on the failure side, with x(v) the unchecked
    inverse: isf on the survival side, quantile on the failure side.

    This is the integral of fn(x, F(x)) * pdf(x) over the window X > t (or
    X <= t), whatever the support.
    """
    survival = side == "survival"
    w = float(d.sf(t) if survival else d.cdf(t))
    inverse, complement = (d._isf, d._quantile) if survival else (d._quantile, d._isf)
    if not w > 0.75:
        return float(integrate(lambda v: fn(inverse(v), v), 0.0, w))

    # x(v) for v near 1 keeps only the digits of 1 - v that v holds, so a
    # window reaching that far is split at v = 1/2 (exactly u = 1/2) and its
    # upper part taken in u = 1 - v through the other inverse, from the
    # complement of w evaluated directly (cdf(t) or sf(t))
    def halves(p, upper):
        upper = np.broadcast_to(upper, p.shape)
        x = np.empty_like(p)
        x[~upper] = inverse(p[~upper])
        x[upper] = complement(p[upper])
        return fn(x, np.where(upper, 1.0 - p, p))

    c = float(d.cdf(t) if survival else d.sf(t))
    return float(np.sum(integrate(halves, [0.0, c], 0.5, args=(np.array([False, True]),))))
