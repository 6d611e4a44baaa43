"""Structural identities, recoveries, and inequality checks for the measures.

Everything here is built from two facts about the dynamic weighted survival
measure g(t) = gdwse(X; t) and its failure mirror:

* derivative identity:  delta * g'(t) = gamma * hazard(t) - t * exp(-delta * g(t))
* affine covariance:    exp(delta * gwse(aX + b)) =
                            a**2 * exp(delta * gwse(X)) + a * b * exp(delta * gse(X))

plus a family of upper and lower bounds relating the measures to weighted
residual moments and to Shannon entropy.  Every integral comes from
``_quad``: the measures and wmrl / wmit through the power integrals, the
Shannon and log-sum right-hand sides through ``window_integral`` over the
conditioning window X > t or X <= t in probability space, so infinite
supports need no truncation.  Checks report residuals and margins; they do
not assert.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import distributions as dist
from ._quad import failure_integral, survival_integral, window_integral
from .entropy import EntropyOrder, gdwfe, gdwse, gwfe, gwse
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


def gdwse_derivative(d, order: EntropyOrder, t: float) -> float:
    """Exact derivative of t -> gdwse(d, order, t) via the identity above."""
    value = gdwse(d, order, t).value
    return (order.gamma * d.hazard(t) - t * math.exp(-order.delta * value)) / order.delta


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
        lo = float(d.quantile(0.001))
        hi = float(d.quantile(0.999))
        grid = np.linspace(lo, hi, 64)
    slopes = np.array([gdwse_derivative(d, order, float(t)) for t in grid])
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
    s = 0.0 if t is None else (t - shift) / scale

    lhs = survival_integral(z, g, 0.0 if t is None else t, "quadrature")
    base_w = survival_integral(d, g, s)
    base_p = survival_integral(d, g, s, weighted=False)
    rhs = scale**2 * base_w + scale * shift * base_p
    survival = abs(lhs - rhs) / abs(lhs)

    failure = None
    if math.isfinite(d.support[1]):
        tz = None if t is None else t
        lhs_f = failure_integral(z, g, tz, "quadrature")
        tf = None if t is None else s
        base_wf = failure_integral(d, g, tf)
        base_pf = failure_integral(d, g, tf, weighted=False)
        rhs_f = scale**2 * base_wf + scale * shift * base_pf
        failure = abs(lhs_f - rhs_f) / abs(lhs_f)

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
    if theta <= 0.0:
        raise GwentropyError("theta must be positive")

    if side == "survival":
        model = dist.ProportionalHazards(d, theta)
        measure = gwse
    else:
        model = dist.ProportionalReverseHazards(d, theta)
        measure = gwfe
    scaled = dist.Affine(d, theta)

    value_model = measure(model, order).value
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


def _skip(name: str, reason: str) -> BoundResult:
    return BoundResult(name, math.nan, math.nan, math.nan, False, reason)


def _upper(name: str, lhs: float, rhs: float) -> BoundResult:
    return BoundResult(name, lhs, rhs, rhs - lhs, True)


def _lower(name: str, lhs: float, rhs: float) -> BoundResult:
    return BoundResult(name, lhs, rhs, lhs - rhs, True)


def _window(d, t: float, side: str) -> float:
    """Probability of the conditioning window: sf(t) for X > t, cdf(t) for X <= t."""
    return float(d.sf(t) if side == "survival" else d.cdf(t))


def _shannon_rhs(d, t: float, side: str) -> float:
    """H + E[log X] of X | X > t (side 'survival'; t = 0 gives H(X) + E[log X])
    or of X | X <= t ('failure'), both over the same conditioning window."""
    w = _window(d, t, side)

    def integrand(x, v):
        fx = d.pdf(x)
        ok = (x > 0.0) & (fx > 0.0)
        return np.where(ok, (np.log(np.where(ok, x, 1.0)) - np.log(np.where(ok, fx, w) / w)) / w, 0.0)

    return window_integral(d, side, t, integrand)


def _logsum_rhs(d, order: EntropyOrder, t: float, side: str, value: float) -> float:
    """Interval log-sum bound on the dynamic measure at t for one side, given
    that measure's value: with h(x) = x * (F(x)/F(t))**gamma over the window,
    F = sf or cdf, it is the h-weighted mean of log h over delta, plus the log
    of the window's length over delta."""
    log_w = math.log(_window(d, t, side))
    length = d.support[1] - t if side == "survival" else t - d.support[0]

    def h_log_h(x, v):
        h = x * np.exp(order.gamma * (np.log(v) - log_w))
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
    inapplicable otherwise.  The Shannon lower bounds and the interval
    log-sum upper bounds hold for every valid order.
    """
    g = order.gamma
    dl = order.delta
    lo, hi = d.support
    finite = math.isfinite(hi)
    results: list[BoundResult] = []

    try:
        svalue = gwse(d, order).value
    except DivergenceError as exc:
        svalue = None
        sreason = str(exc)
    fvalue = gwfe(d, order).value if finite else None

    # ---- weighted-moment upper bounds (need gamma >= 1) ----
    if g < 1.0:
        results.append(_skip("wmrl-upper", "requires gamma >= 1"))
    elif svalue is None:
        results.append(_skip("wmrl-upper", sreason))
    else:
        results.append(_upper("wmrl-upper", svalue, math.log(d.wmrl(0.0)) / dl))

    if not finite:
        results.append(_skip("wmit-upper", "requires a finite support"))
    elif g < 1.0:
        results.append(_skip("wmit-upper", "requires gamma >= 1"))
    else:
        results.append(_upper("wmit-upper", fvalue, math.log(d.wmit(hi)) / dl))

    # ---- Shannon lower bounds ----
    # at t = 0 and at the support top both sides condition on nothing, so
    # they share the right-hand side H(X) + E[log X]
    rhs = _shannon_rhs(d, 0.0, "survival") if svalue is not None or finite else None
    if svalue is None:
        results.append(_skip("shannon-lower-survival", sreason))
    else:
        results.append(_lower("shannon-lower-survival", dl * svalue + g, rhs))
    if finite:
        results.append(_lower("shannon-lower-failure", dl * fvalue + g, rhs))
    else:
        results.append(_skip("shannon-lower-failure", "requires a finite support"))

    if t is None:
        return BoundReport(order, None, tuple(results))

    # ---- dynamic bounds at t ----
    sf_t = float(d.sf(t))
    cdf_t = float(d.cdf(t))

    if sf_t <= 0.0:
        for name in ("wmrl-upper-dynamic", "shannon-lower-survival-dynamic", "interval-logsum-upper-survival"):
            results.append(_skip(name, "survival is zero at t"))
    else:
        try:
            dvalue = gdwse(d, order, t).value
        except DivergenceError as exc:
            dvalue = None
            dreason = str(exc)
        if dvalue is None:
            results.append(_skip("wmrl-upper-dynamic", dreason))
        elif g < 1.0:
            results.append(_skip("wmrl-upper-dynamic", "requires gamma >= 1"))
        else:
            results.append(_upper("wmrl-upper-dynamic", dvalue, math.log(d.wmrl(t)) / dl))
        if dvalue is None:
            results.append(_skip("shannon-lower-survival-dynamic", dreason))
        else:
            rhs = _shannon_rhs(d, t, "survival")
            results.append(_lower("shannon-lower-survival-dynamic", dl * dvalue + g, rhs))
        if dvalue is None:
            results.append(_skip("interval-logsum-upper-survival", dreason))
        elif not finite:
            results.append(_skip("interval-logsum-upper-survival", "requires a finite support"))
        elif not lo <= t < hi:
            results.append(_skip("interval-logsum-upper-survival", "requires t inside the support"))
        else:
            results.append(
                _upper("interval-logsum-upper-survival", dvalue, _logsum_rhs(d, order, t, "survival", dvalue))
            )

    if cdf_t <= 0.0:
        for name in ("wmit-upper-dynamic", "shannon-lower-failure-dynamic", "interval-logsum-upper-failure"):
            results.append(_skip(name, "cdf is zero at t"))
    else:
        fdyn = gdwfe(d, order, t).value
        if g < 1.0:
            results.append(_skip("wmit-upper-dynamic", "requires gamma >= 1"))
        else:
            results.append(_upper("wmit-upper-dynamic", fdyn, math.log(d.wmit(min(t, hi))) / dl))
        rhs = _shannon_rhs(d, t, "failure")
        results.append(_lower("shannon-lower-failure-dynamic", dl * fdyn + g, rhs))
        if not lo < t <= hi:
            results.append(_skip("interval-logsum-upper-failure", "requires t inside the support"))
        else:
            results.append(
                _upper("interval-logsum-upper-failure", fdyn, _logsum_rhs(d, order, t, "failure", fdyn))
            )

    return BoundReport(order, t, tuple(results))
