"""The power integrals behind every measure: closed form or adaptive quadrature.

All integrals reduce to one of two shapes:

* survival type: integral of w(x) * (sf(x) / sf(t))**g over [max(t, lo), hi]
* failure type:  integral of w(x) * (cdf(x) / cdf(t))**g over [lo, t]

with weight w(x) = x (weighted measures) or w(x) = 1.  ``survival_integral``
and ``failure_integral`` are the one place that checks the domain and the
method and picks the route: a family's own closed form
(``Distribution._survival_closed`` / ``_failure_closed``) or quadrature.

Finite supports are integrated directly in x.  Infinite supports are mapped
through v = sf(x) by ``window_integral``, which turns the tail into a finite
interval (0, sf(lower)] with at worst an algebraic endpoint singularity, the
case the QAGS extrapolation in scipy.integrate.quad is built for.
``window_integral`` is also the one integral behind the Shannon and log-sum
bounds in ``checks``, on either side and for any support.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import DivergenceError, GwentropyError

REL_TOL = 1e-10  # the only stopping rule: an absolute floor would govern integrals near 0
MAX_SUBDIVISIONS = 200

_METHODS = ("auto", "closed", "quadrature")


def integrate(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive integral of f over [a, b] under the shared tolerances."""
    if not b > a:
        return 0.0
    return quad(f, a, b, epsabs=0.0, epsrel=REL_TOL, limit=MAX_SUBDIVISIONS, full_output=1)[0]


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
    closed = _closed(method, d._survival_closed, g, max(t, d.support[0]), weighted)
    if closed is not None:
        return closed

    lo, hi = d.support
    log_sf_t = math.log(float(d.sf(t)))
    start = max(t, lo)
    if math.isinf(hi):
        def integrand(x: float, v: float) -> float:
            return (x if weighted else 1.0) * math.exp(g * (math.log(v) - log_sf_t)) / float(d.pdf(x))

        return window_integral(d, "survival", float(d.sf(start)), integrand)
    return _x_power_integral(d.sf, log_sf_t, g, weighted, start, hi)


def failure_integral(d, g: float, t: float | None = None, method: str = "auto", weighted: bool = True) -> float:
    """Integral of w(x) * (cdf(x)/cdf(s))**g from the support bottom to s,
    where s = min(t, support top), or s = support top when t is None."""
    lo, hi = d.support
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

    return _x_power_integral(d.cdf, math.log(float(d.cdf(s))), g, weighted, lo, s)


def window_integral(d, side: str, w: float, fn: Callable[[float, float], float]) -> float:
    """Integral of fn(x(v), v) over v in (0, w], with x(v) the unchecked inverse:
    isf on the survival side, quantile on the failure side.

    With w = sf(t) (or cdf(t)) this is the integral of fn(x, F(x)) * pdf(x)
    over the window X > t (or X <= t), whatever the support.
    """
    inverse = d._isf if side == "survival" else d._quantile
    return integrate(lambda v: fn(float(inverse(np.asarray(v))), v), 0.0, w)


def _x_power_integral(fn, log_fn_t: float, g: float, weighted: bool, a: float, b: float) -> float:
    """Integral of w(x) * (fn(x) / fn(t))**g over the finite [a, b], fn = sf or cdf."""

    def integrand(x: float) -> float:
        c = float(fn(x))
        if c <= 0.0:
            return 0.0
        return (x if weighted else 1.0) * math.exp(g * (math.log(c) - log_fn_t))

    return integrate(integrand, a, b)
