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
double-exponential (tanh-sinh) quadrature, ``scipy.integrate.tanhsinh``
(Takahasi & Mori, 1974), which evaluates each refinement level of an
elementwise integrand in one vectorized call.  An element it does not bring
to ``REL_TOL`` falls back to the adaptive ``scipy.integrate.quad``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.integrate import quad, tanhsinh

from .errors import DivergenceError, GwentropyError, QuadratureError

REL_TOL = 1e-10  # the only stopping rule: an absolute floor would govern integrals near 0
MAX_SUBDIVISIONS = 200  # of the quad fallback

_METHODS = ("auto", "closed", "quadrature")


def integrate(f: Callable[..., np.ndarray], a, b, args: tuple = ()) -> np.ndarray:
    """Integrals of the elementwise f(x, *args) over finite [a, b], one per
    element of the broadcast a, b and args, under the shared tolerance.

    f is only evaluated strictly inside (a, b): tanhsinh gives nodes that
    round onto a limit zero weight, and they are evaluated at the midpoint.
    A value of f that is not finite raises QuadratureError; tanhsinh would
    replace it by a finite neighbour without a word.
    """
    a, b, *args = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float), *args)

    def inside(x, a, b, *args):
        edge = (x <= a) | (x >= b)
        fx = f(np.where(edge, (a + b) / 2.0, x), *args)
        bad = np.size(fx) - np.count_nonzero(np.isfinite(fx))
        if bad:
            raise QuadratureError(f"integrand is not finite at {bad} of {np.size(fx)} nodes")
        return np.where(edge, 0.0, fx)

    # the first stop is after level 3: an error estimate from levels 0-2 alone
    # can be a hundred times too small where a window is split
    res = tanhsinh(inside, a, b, args=(a, b, *args), rtol=REL_TOL, atol=0.0, minlevel=3)
    out = np.array(res.integral, dtype=float)
    for i in np.ndindex(out.shape):
        if res.status[i] != 0:  # not converged: the quad fallback
            row = (a[i], b[i], *(arg[i] for arg in args))
            out[i] = quad(
                lambda x: float(inside(np.asarray(x), *row)), a[i], b[i], epsabs=0.0, epsrel=REL_TOL, limit=MAX_SUBDIVISIONS
            )[0]
    return out


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
