"""The power integrals behind every measure: closed form or quadrature.

All integrals reduce to one of two shapes:

* survival type: integral of w(x) * (sf(x) / sf(t))**g over [max(t, lo), hi]
* failure type:  integral of w(x) * (cdf(x) / cdf(t))**g over [lo, t]

with weight w(x) = x (weighted measures) or w(x) = 1, at a scalar t or at
each element of an array.  ``survival_integral`` and ``failure_integral`` are
the one place that checks the domain and the method and picks the route: a
distribution's own closed form (``_survival_closed`` / ``_failure_closed``, a
wrapper's taken from its base) or quadrature.

Quadrature is always taken in probability space by ``window_integral``:
v = sf(x) (or cdf(x)) maps the window X > t (or X <= t) onto the finite
(0, sf(t)] (or (0, cdf(t)]) on any support, with at worst algebraic
singularities at the ends; all windows of a call, here and in the bounds of
``checks``, are elements of one ``integrate`` call.  ``integrate`` runs
double-exponential (tanh-sinh) quadrature (Takahasi & Mori, 1974) with
Bailey's error estimate (Bailey, Jeyabalan & Li, 2005), written here in numpy
on scipy's node tables and stopping rule: levels 0-3 of an elementwise
integrand are one vectorized call, and each further level one more.  ``quad``
takes an element still short of ``REL_TOL``, or raises ``QuadratureError``.
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
    is integrated again by quad, with x and each arg of shape (1, 1), under
    the rule's errstate.  f is only evaluated strictly inside (a, b): a node
    that rounds onto a limit gets zero weight and is evaluated at the
    midpoint.  A value of f that is not finite, or a quad result short of
    REL_TOL (with its estimate and error estimate), raises QuadratureError.
    """
    a, b, *args = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float), *args)
    shape = a.shape
    a, b, *args = (v.reshape(-1, 1) for v in (a, b, *args))

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
        for level in range(_MIN_LEVEL, _MAX_LEVEL + 1) if live.size else ():
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
            d4 = np.max(tail, axis=-1)
            err = np.maximum(np.maximum(np.where(d1 > 0, d1 ** (np.log(d1) / np.log(d2)), 0), d1**2), np.maximum(d3, d4))
            done = np.clip(err, _EPS * np.abs(s), d1) / np.abs(s) < REL_TOL
            out[live[done]] = s[done]

            keep = ~done
            live = live[keep]
            if not live.size:
                break
            a, b, reach, tail, s, s1, *args = (v[keep] for v in (a, b, reach, tail, s, s1, *args))
        if live.size:  # not converged by the last level: the quad fallback
            from scipy.integrate import quad

            for j, i in enumerate(live):
                row = [v[j : j + 1] for v in (a, b, *args)]
                value, error, _, *short = quad(lambda x: inside(np.full((1, 1), x), *row)[0, 0], a[j, 0], b[j, 0],
                                               epsabs=0.0, epsrel=REL_TOL, limit=MAX_SUBDIVISIONS, full_output=1)
                if short:  # with full_output, quad returns its message where it falls short instead of warning
                    raise QuadratureError(f"quad fell short of rtol {REL_TOL:g}: estimate {value:.17g}, error estimate {error:.3g}")
                out[i] = value
    return out.reshape(shape)


def _mapped(f: Callable[[float], float], a: np.ndarray) -> np.ndarray:
    """f on each element of the 1-D array a as a Python float: math.log and
    math.exp, which numpy's log and exp can round apart from, or a family's
    function at one t as a scalar call evaluates it."""
    return np.fromiter(map(f, a.tolist()), float, a.size)


def survival_integral(d, g: float, t: float | np.ndarray = 0.0, method: str = "auto", weighted: bool = True):
    """Integral of w(x) * (sf(x)/sf(t))**g from max(t, support bottom) up, at
    each element of t: a float for a scalar t, else an array of t's shape."""
    # sf is 1 at and below the support bottom, so clamping t there is exact
    return _integral(d, "survival", g, np.maximum(t, d.support[0]), method, weighted)


def failure_integral(d, g: float, t: float | np.ndarray | None = None, method: str = "auto", weighted: bool = True):
    """Integral of w(x) * (cdf(x)/cdf(s))**g from the support bottom to s =
    min(t, support top), or the top when t is None; per element of t.
    DivergenceError where s is an infinite top, as a whole infinite support."""
    hi = d.support[1]
    s = np.minimum(hi if t is None else t, hi)
    if np.any(np.isposinf(s)):
        raise DivergenceError("failure-side measure diverges on an infinite support")
    return _integral(d, "failure", g, s, method, weighted)


def _integral(d, side: str, g: float, t: np.floating | np.ndarray, method: str, weighted: bool) -> float | np.ndarray:
    """The power integral at the clamped t by the route `method` picks;
    GwentropyError where it is not a positive finite number, its scale
    outside the float range."""
    ts, masses = _masses(d, side, t)
    survival = side == "survival"
    if survival:
        d._check_tail(g, weighted=weighted)
    if method not in _METHODS:
        raise GwentropyError(f"unknown method {method!r}")
    value = None
    if method != "quadrature":
        # a closed form whose scale leaves the float range overflows, underflows or raises
        with np.errstate(all="ignore"):
            try:
                value = (d._survival_closed if survival else d._failure_closed)(g, t, weighted)
            except ArithmeticError:
                value = math.nan
    if value is None:
        if method == "closed":
            raise GwentropyError("no closed form for this family")
        value = _window(d, side, ts, masses, _power(d, g, weighted)).reshape(t.shape)
    array = isinstance(t, np.ndarray)
    if not (np.all((value > 0.0) & (value < math.inf)) if array else 0.0 < value < math.inf):
        raise GwentropyError(f"the {side} integral is not a positive finite number: its scale leaves the float range")
    return np.full(t.shape, value) if array else float(value)


def _masses(d, side: str, t: float | np.ndarray) -> tuple[list, list]:
    """The elements of t as floats and their window masses, sf(t) or cdf(t)
    with the bits of a scalar call; GwentropyError for a NaN t or a zero mass."""
    ts = np.ravel(t).tolist()
    if any(map(math.isnan, ts)):
        raise GwentropyError("t must not be NaN")
    masses = [float((d.sf if side == "survival" else d.cdf)(x)) for x in ts]
    for x, w in zip(ts, masses):
        if not w > 0.0:
            raise GwentropyError(f"{'survival' if side == 'survival' else 'cdf'} is zero at t={x}")
    return ts, masses


def _power(d, g: float, weighted: bool):
    """The window integrand of the power integral: w(x) * (v / W)**g / pdf(x)
    over v = F(x) in (0, W], F = sf or cdf, W the window mass."""

    def integrand(x, v, w):
        fx = d.pdf(x)
        # pdf is 0 only where x rounds onto or past a support end: a finite
        # one, or inf where the isf of a heavy tail overflows for v near 0
        ok = fx > 0.0
        p = np.where(ok, np.exp(g * (np.log(v) - _mapped(math.log, w.ravel()).reshape(w.shape))) / np.where(ok, fx, 1.0), 0.0)
        return np.where(ok, x, 0.0) * p if weighted else p

    return integrand


def window_integral(d, side: str, t: float | np.ndarray, fn: Callable[..., np.ndarray]) -> float | np.ndarray:
    """Integral of the elementwise fn(x(v), v, w) over v in (0, w] at each
    element of t (a float for a scalar t), w = sf(t) on the survival side and
    cdf(t) on the failure side in the shape of v's rows, x(v) the unchecked
    isf or quantile: the integral of fn(x, F(x), w) * pdf(x) over the window
    X > t (or X <= t), whatever the support."""
    value = _window(d, side, *_masses(d, side, t), fn).reshape(np.shape(t))
    return value if np.ndim(t) else float(value)


def _window(d, side: str, ts: list, masses: list, fn) -> np.ndarray:
    """window_integral at the floats ts, given their window masses."""
    survival = side == "survival"
    inverse, complement = (d._isf, d._quantile) if survival else (d._quantile, d._isf)
    # x(v) for v near 1 keeps only the digits of 1 - v that v holds, so a window past 3/4
    # is split at v = 1/2 (exactly u = 1/2) and its upper part, in u = 1 - v through the
    # other inverse from the complement cdf(t) or sf(t), is one more element of the call
    split = [w > 0.75 for w in masses]
    c = [float((d.cdf if survival else d.sf)(x)) for x, s in zip(ts, split) if s]

    def halves(p, upper, w):
        # integrate keeps the rows in order, so the upper parts come last
        lower = len(upper) - np.count_nonzero(upper)
        x = np.concatenate((inverse(p[:lower]), complement(p[lower:])))
        return fn(x, np.concatenate((p[:lower], 1.0 - p[lower:])), w)

    n = len(ts)
    b = [0.5 if s else w for s, w in zip(split, masses)] + [0.5] * len(c)
    args = ([False] * n + [True] * len(c), masses + [w for s, w in zip(split, masses) if s])
    value = integrate(halves, [0.0] * n + c, b, args=args)
    value[:n][np.array(split, dtype=bool)] += value[n:]
    return value[:n]
