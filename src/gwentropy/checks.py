"""Structural identities, recoveries, and inequality checks for the measures.

Everything here is built from two facts about the dynamic weighted survival
measure g(t) = gdwse(X; t) and its failure mirror:

* derivative identity:  delta * g'(t) = gamma * hazard(t) - t * exp(-delta * g(t))
* affine covariance:    the power integral of aX + b is a combination of the
                        weighted and unweighted ones of X, written once in
                        ``Affine._from_base``; the check feeds it the base's
                        integrals and compares with the wrapper by quadrature

plus a family of upper and lower bounds relating the measures to weighted
residual moments and to Shannon entropy.  Every integral comes from
``_quad``: the measures and wmrl / wmit through the power integrals, the
Shannon and log-sum right-hand sides through ``window_integral`` over the
conditioning window X > t or X <= t in probability space, so infinite
supports need no truncation, and a grid of t is one quadrature call.
Checks report residuals and margins; they do not assert.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import distributions as dist
from ._quad import _mapped, failure_integral, survival_integral, window_integral
from .entropy import EntropyOrder, _gdwse_value, _positive_float, gdwfe, gdwse, gwfe, gwse
from .errors import DivergenceError, GwentropyError

__all__ = [
    "hazard_from_gdwse",
    "reverse_hazard_from_gdwfe",
    "gdwse_derivative",
    "Monotonicity",
    "classify_gdwse_monotonicity",
    "AffineCheck",
    "affine_identity_check",
    "ProportionalModelCheck",
    "proportional_model_check",
    "BoundResult",
    "BoundReport",
    "bound_check",
]


# ---------- derivative identity and recoveries ----------


def _central_derivative(g: Callable[[float], float], t: float, step: float, richardson: bool) -> float:
    _positive_float(step, "step")
    d1 = (g(t + step) - g(t - step)) / (2.0 * step)
    if not richardson:
        return d1
    d2 = (g(t + 2.0 * step) - g(t - 2.0 * step)) / (4.0 * step)
    return (4.0 * d1 - d2) / 3.0


def hazard_from_gdwse(
    g: Callable[[float], float],
    order: EntropyOrder,
    t: float,
    step: float = 1e-5,
    richardson: bool = False,
) -> float:
    """Recover the failure rate at t from a dynamic weighted survival curve.

    g maps t to the measure value; its derivative is taken by central
    differences with the given step (optionally Richardson-extrapolated).
    The identity holds only inside the support: below it gdwse is constant.
    """
    slope = _central_derivative(g, t, step, richardson)
    return (order.delta * slope + t * math.exp(-order.delta * g(t))) / order.gamma


def reverse_hazard_from_gdwfe(
    g: Callable[[float], float],
    order: EntropyOrder,
    t: float,
    step: float = 1e-5,
    richardson: bool = False,
) -> float:
    """Recover the reversed failure rate at t from a dynamic weighted failure curve."""
    slope = _central_derivative(g, t, step, richardson)
    return (t * math.exp(-order.delta * g(t)) - order.delta * slope) / order.gamma


def gdwse_derivative(d, order: EntropyOrder, t: float | np.ndarray) -> float | np.ndarray:
    """Exact derivative of t -> gdwse(d, order, t) via the identity above at
    each element of t, in one quadrature call; 0 below the support bottom,
    where gdwse is constant."""
    ts = np.ravel(np.asarray(t, dtype=float))
    # the hazard one t at a time, as the window masses: its scalar call can round apart
    slope = (order.gamma * _mapped(d._hazard, ts) - ts * _mapped(math.exp, -order.delta * _gdwse_value(d, order, ts))) / order.delta
    slope = np.where(ts < d.support[0], 0.0, slope).reshape(np.shape(t))
    return slope if np.ndim(t) else float(slope)


class Monotonicity(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    MIXED = "mixed"


def classify_gdwse_monotonicity(d, order: EntropyOrder, grid: Sequence[float] | None = None) -> Monotonicity:
    """Classify t -> gdwse(d, order, t) on a grid of derivative signs.

    The default grid is 64 points between the 0.001 and 0.999 quantiles.
    A measure that is constant within tolerance (rayleigh is the boundary
    family) classifies as increasing, since it is weakly so.
    """
    if grid is None:
        grid = np.linspace(float(d.quantile(0.001)), float(d.quantile(0.999)), 64)
    elif not np.size(grid):
        raise GwentropyError("grid must hold at least one t")
    slopes = gdwse_derivative(d, order, grid)
    tol = 1e-9 * (1.0 + float(np.max(np.abs(slopes))))
    if np.all(slopes >= -tol):
        return Monotonicity.INCREASING
    if np.all(slopes <= tol):
        return Monotonicity.DECREASING
    return Monotonicity.MIXED


# ---------- affine covariance ----------


@dataclass(frozen=True)
class AffineCheck:
    """Relative residuals of the affine identities for scale * X + shift.

    ``survival`` compares exp(delta * gwse) of the transformed variable
    against the covariance combination of the base measures; ``failure``
    is the cdf-side analogue and is None on infinite supports.  When t is
    given, both identities are checked in their dynamic form at t (on the
    transformed time axis).
    """

    scale: float
    shift: float
    t: float | None
    survival: float
    failure: float | None


def affine_identity_check(d, order: EntropyOrder, scale: float, shift: float, t: float | None = None) -> AffineCheck:
    """Check exp-scale affine covariance of the weighted measures.

    The transformed side is always evaluated by quadrature through the
    wrapper distribution, the base side by whatever route is available, so
    a vanishing residual is evidence the two routes agree.
    """
    z = dist.Affine(d, scale, shift)
    g = order.gamma

    def residual(integral, at):
        lhs = integral(z, g, at, "quadrature")
        rhs = z._from_base(lambda g, x, w: integral(d, g, x, weighted=w), g, at, True)
        return abs(lhs - rhs) / abs(lhs)

    survival = residual(survival_integral, 0.0 if t is None else t)
    failure = residual(failure_integral, z.support[1] if t is None else t) if math.isfinite(d.support[1]) else None
    return AffineCheck(scale=scale, shift=shift, t=t, survival=survival, failure=failure)


# ---------- proportional hazards / reverse hazards ----------


@dataclass(frozen=True)
class ProportionalModelCheck:
    """Outcome of the proportional-model reduction and orderings.

    The reduction maps the measure of the theta-power model at order
    (alpha, beta) to a rescaled measure of the base variable at the
    transformed order (theta * alpha, theta * (beta - 1) + 1).  It only
    applies while the transformed pair is itself a valid order, i.e. its
    own delta stays positive; otherwise ``applicable`` is False and only
    the chain comparison fields are set.
    """

    side: str
    theta: float
    applicable: bool
    transformed_order: EntropyOrder | None
    identity_residual: float | None
    value_model: float
    value_base: float
    value_scaled: float
    chain_ok: bool


def proportional_model_check(
    d,
    order: EntropyOrder,
    theta: float,
    side: str = "survival",
    slack: float = 1e-9,
) -> ProportionalModelCheck:
    """Check the proportional-model reduction and the theta orderings.

    side "survival" uses sf**theta (proportional hazards) and the weighted
    survival measure; side "failure" uses cdf**theta (proportional reverse
    hazards) and the weighted failure measure.  The orderings compared are

        theta > 1:  model <= base <= theta-scaled base   (reversed for theta < 1)
    """
    if side not in ("survival", "failure"):
        raise GwentropyError(f"side must be 'survival' or 'failure', got {side!r}")

    if side == "survival":
        model = dist.ProportionalHazards(d, theta)
        measure = gwse
    else:
        model = dist.ProportionalReverseHazards(d, theta)
        measure = gwfe
    scaled = dist.Affine(d, theta)

    # the model by quadrature: its closed form is the reduction under test
    value_model = measure(model, order, method="quadrature").value
    value_base = measure(d, order).value
    value_scaled = measure(scaled, order).value

    if theta >= 1.0:
        chain_ok = (
            value_model <= value_base + slack and value_base <= value_scaled + slack
        )
    else:
        chain_ok = (
            value_model >= value_base - slack and value_base >= value_scaled - slack
        )

    alpha_t = theta * order.alpha
    beta_t = theta * (order.beta - 1.0) + 1.0
    applicable = beta_t - alpha_t > 0.0
    transformed = None
    residual = None
    if applicable:
        transformed = EntropyOrder(alpha_t, beta_t)
        rhs = (transformed.delta / order.delta) * measure(d, transformed).value
        residual = abs(value_model - rhs) / max(1.0, abs(value_model))

    return ProportionalModelCheck(
        side=side,
        theta=theta,
        applicable=applicable,
        transformed_order=transformed,
        identity_residual=residual,
        value_model=value_model,
        value_base=value_base,
        value_scaled=value_scaled,
        chain_ok=chain_ok,
    )


# ---------- bounds ----------


@dataclass(frozen=True)
class BoundResult:
    """One inequality: margin >= 0 means it holds (with room `margin`)."""

    name: str
    lhs: float
    rhs: float
    margin: float
    applicable: bool
    reason: str | None = None


@dataclass(frozen=True)
class BoundReport:
    order: EntropyOrder
    t: float | None
    results: tuple[BoundResult, ...]

    def failures(self, tol: float = 1e-9) -> list[BoundResult]:
        return [r for r in self.results if r.applicable and r.margin < -tol]

    def all_hold(self, tol: float = 1e-9) -> bool:
        return not self.failures(tol)


def _bound(name: str, skip: str | None, sign: float, values: Callable[[], tuple[float, float]]) -> BoundResult:
    """The bound `name`: skipped for the reason `skip` if one is set, else
    (lhs, rhs) = values() with margin sign * (rhs - lhs), sign +1 for an
    upper bound and -1 for a lower one (written so a tie's zero is +0.0)."""
    if skip:
        return BoundResult(name, math.nan, math.nan, math.nan, False, skip)
    lhs, rhs = values()
    return BoundResult(name, lhs, rhs, sign * rhs - sign * lhs, True)


def _unless_divergent(call: Callable[[], object]) -> tuple[object, str | None]:
    """(call(), None), or (None, the message) where call raises DivergenceError."""
    try:
        return call(), None
    except DivergenceError as exc:
        return None, str(exc)


def _shannon_rhs(d, t: float, side: str) -> float:
    """H + E[log X] of X | X > t (side 'survival'; t = 0 gives H(X) + E[log X])
    or of X | X <= t ('failure'), both over the same conditioning window."""

    def integrand(x, v, w):
        fx = d.pdf(x)
        ok = (x > 0.0) & (fx > 0.0)
        return np.where(ok, (np.log(np.where(ok, x, 1.0)) - np.log(np.where(ok, fx, w) / w)) / w, 0.0)

    return window_integral(d, side, t, integrand)


def _logsum_rhs(d, order: EntropyOrder, t: float, side: str, value: float) -> float:
    """Interval log-sum bound on the dynamic measure at t for one side, given
    that measure's value: with h(x) = x * (F(x)/F(t))**gamma over the window,
    F = sf or cdf, it is the h-weighted mean of log h over delta, plus the log
    of the window's length over delta."""
    length = d.support[1] - t if side == "survival" else t - d.support[0]

    def h_log_h(x, v, w):
        h = x * np.exp(order.gamma * (np.log(v) - _mapped(math.log, w.ravel()).reshape(w.shape)))
        fx = d.pdf(x)
        ok = (h > 0.0) & (fx > 0.0)
        hs = np.where(ok, h, 1.0)
        return np.where(ok, hs * np.log(hs) / np.where(ok, fx, 1.0), 0.0)

    total = math.exp(order.delta * value)
    return window_integral(d, side, t, h_log_h) / (order.delta * total) + math.log(length) / order.delta


def bound_check(d, order: EntropyOrder, t: float | None = None) -> BoundReport:
    """Evaluate the bound inequalities; dynamic ones only when t is given.

    Upper bounds through the weighted residual moments (wmrl / wmit) rest
    on sf**gamma <= sf, so they require gamma >= 1 and are reported as
    inapplicable otherwise, and the wmrl bounds are skipped where wmrl
    diverges.  The Shannon lower bounds and the interval
    log-sum upper bounds hold for every valid order.
    """
    g = order.gamma
    dl = order.delta
    lo, hi = d.support
    low_gamma = "requires gamma >= 1" if g < 1.0 else None
    unbounded = None if math.isfinite(hi) else "requires a finite support"

    svalue, sreason = _unless_divergent(lambda: gwse(d, order).value)
    # wmrl is the weighted integral at gamma = 1, which diverges on tails where gwse may not
    _, wmrl_reason = _unless_divergent(lambda: d._check_tail(1.0))
    fvalue = None if unbounded else gwfe(d, order).value
    # at t = 0 and at the support top both sides condition on nothing, so the
    # Shannon lower bounds share the right-hand side H(X) + E[log X]
    shannon = functools.cache(lambda: _shannon_rhs(d, 0.0, "survival"))
    results = [
        _bound("wmrl-upper", low_gamma or sreason or wmrl_reason, 1, lambda: (svalue, math.log(d.wmrl(0.0)) / dl)),
        _bound("wmit-upper", unbounded or low_gamma, 1, lambda: (fvalue, math.log(d.wmit(hi)) / dl)),
        _bound("shannon-lower-survival", sreason, -1, lambda: (dl * svalue + g, shannon())),
        _bound("shannon-lower-failure", unbounded, -1, lambda: (dl * fvalue + g, shannon())),
    ]
    if t is None:
        return BoundReport(order, None, tuple(results))

    # ---- dynamic bounds at t (a NaN t raises in the measure's window) ----
    outside = "requires t inside the support"
    sides = [
        # side, moment bound, why its three bounds skip, measure, moment at t,
        # why the moment bound skips, why the interval bound skips
        ("survival", "wmrl", "survival is zero at t" if float(d.sf(t)) <= 0.0 else None, gdwse,
         lambda: d.wmrl(t), wmrl_reason, unbounded or (None if lo <= t < hi else outside)),
        ("failure", "wmit", "cdf is zero at t" if float(d.cdf(t)) <= 0.0 else None, gdwfe,
         lambda: d.wmit(min(t, hi)), None, None if lo < t <= hi else outside),
    ]
    for side, moment, skip, measure, moment_at_t, moment_skip, interval_skip in sides:
        # a divergent measure skips its three bounds: gdwse where gwse
        # diverges, gdwfe at an infinite t on an infinite support
        value, skip = (None, skip) if skip else _unless_divergent(lambda: measure(d, order, t).value)
        results += [
            _bound(f"{moment}-upper-dynamic", skip or low_gamma or moment_skip, 1,
                   lambda: (value, math.log(moment_at_t()) / dl)),
            _bound(f"shannon-lower-{side}-dynamic", skip, -1, lambda: (dl * value + g, _shannon_rhs(d, t, side))),
            _bound(f"interval-logsum-upper-{side}", skip or interval_skip, 1, lambda: (value, _logsum_rhs(d, order, t, side, value))),
        ]

    return BoundReport(order, t, tuple(results))
