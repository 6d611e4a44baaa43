"""The power integrals behind every measure: closed form or adaptive quadrature.

All integrals reduce to one of two shapes:

* survival type: integral of w(x) * (sf(x) / sf(t))**g over [max(t, lo), hi]
* failure type:  integral of w(x) * (cdf(x) / cdf(t))**g over [lo, t]

with weight w(x) = x (weighted measures) or w(x) = 1.  ``survival_integral``
and ``failure_integral`` are the one place that checks the domain and the
method and picks the route: a family's own closed form
(``Distribution._survival_closed`` / ``_failure_closed``) or quadrature.

Finite supports are integrated directly in x.  Infinite supports are mapped
through v = sf(x), which turns the tail into a finite interval
(0, sf(lower)] with at worst an algebraic endpoint singularity, the case the
QAGS extrapolation in scipy.integrate.quad is built for.
"""

from __future__ import annotations

import math
from typing import Callable

from scipy.integrate import quad

from .errors import DivergenceError, GwentropyError

REL_TOL = 1e-10
ABS_TOL = 1e-12
MAX_SUBDIVISIONS = 200

_METHODS = ("auto", "closed", "quadrature")


def integrate(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive integral of f over [a, b] under the shared tolerances."""
    if not b > a:
        return 0.0
    return quad(f, a, b, epsabs=ABS_TOL, epsrel=REL_TOL, limit=MAX_SUBDIVISIONS, full_output=1)[0]


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
        v_top = float(d.sf(start))

        def integrand(v: float) -> float:
            x = float(d.isf(v))
            ratio = math.exp(g * (math.log(v) - log_sf_t))
            w = x if weighted else 1.0
            return w * ratio / float(d.pdf(x))

        return integrate(integrand, 0.0, v_top)

    def integrand_x(x: float) -> float:
        s = float(d.sf(x))
        if s <= 0.0:
            return 0.0
        ratio = math.exp(g * (math.log(s) - log_sf_t))
        return (x if weighted else 1.0) * ratio

    return integrate(integrand_x, start, hi)


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

    log_cdf_s = math.log(float(d.cdf(s)))

    def integrand_x(x: float) -> float:
        c = float(d.cdf(x))
        if c <= 0.0:
            return 0.0
        ratio = math.exp(g * (math.log(c) - log_cdf_s))
        return (x if weighted else 1.0) * ratio

    return integrate(integrand_x, lo, s)
