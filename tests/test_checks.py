"""Analytic consistency checks: recovery, monotonicity, identities, bounds."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwentropy import (
    EntropyOrder,
    Monotonicity,
    affine_identity_check,
    bound_check,
    classify_gdwse_monotonicity,
    gdwse,
    gdwfe,
    hazard_from_gdwse,
    proportional_model_check,
    reverse_hazard_from_gdwfe,
)
from gwentropy import _quad
from gwentropy.checks import gdwse_derivative
from gwentropy.distributions import (
    Affine,
    Exponential,
    Gamma,
    Pareto,
    Power,
    ProportionalHazards,
    ProportionalReverseHazards,
    Rayleigh,
    Uniform,
    Weibull,
)
from gwentropy.errors import GwentropyError

ORD = EntropyOrder(0.26, 1.25)
ORD2 = EntropyOrder(0.8, 1.1)
ORD_BIG = EntropyOrder(1.3, 1.6)  # gamma = 1.9 >= 1, moment bounds apply


# ---------- hazard recovery ----------


@pytest.mark.parametrize(
    "d,ts",
    [
        (Exponential(1.3), (0.2, 0.9, 2.0)),
        (Rayleigh(0.8), (0.3, 0.8, 1.4)),
        (Uniform(0.3, 2.0), (0.5, 1.0, 1.6)),
        (Weibull(1.7), (0.4, 0.9, 1.5)),
        (Gamma(2.5), (0.8, 1.8, 3.0)),
    ],
    ids=lambda v: getattr(type(v), "__name__", "ts"),
)
def test_hazard_recovery(d, ts):
    for t in ts:
        rec = hazard_from_gdwse(lambda s: float(gdwse(d, ORD, s)), ORD, t)
        assert rec == pytest.approx(d.hazard(t), abs=1e-4 * (1.0 + d.hazard(t)))


@pytest.mark.parametrize(
    "d,ts",
    [
        (Power(1.6, 1.5), (0.4, 0.9, 1.3)),
        (Uniform(0.3, 2.0), (0.7, 1.2, 1.8)),
    ],
    ids=["power", "uniform"],
)
def test_reverse_hazard_recovery(d, ts):
    for t in ts:
        rec = reverse_hazard_from_gdwfe(lambda s: float(gdwfe(d, ORD2, s)), ORD2, t)
        ref = d.reverse_hazard(t)
        assert rec == pytest.approx(ref, abs=1e-4 * (1.0 + ref))


def test_hazard_recovery_richardson_improves():
    d = Weibull(2.3)
    t = 1.1
    plain = hazard_from_gdwse(lambda s: float(gdwse(d, ORD, s)), ORD, t, step=1e-3)
    refined = hazard_from_gdwse(
        lambda s: float(gdwse(d, ORD, s)), ORD, t, step=1e-3, richardson=True
    )
    ref = d.hazard(t)
    assert abs(refined - ref) <= abs(plain - ref)


@pytest.mark.parametrize("recover", [hazard_from_gdwse, reverse_hazard_from_gdwfe])
@pytest.mark.parametrize("step", [0.0, -1e-5, math.nan, math.inf])
def test_derivative_step_must_be_finite_and_positive(recover, step):
    # a zero step ended in ZeroDivisionError, the others in a number
    with pytest.raises(GwentropyError, match="step must be finite and positive"):
        recover(lambda s: 1.0, ORD, 0.5, step=step)


def test_gdwse_derivative_matches_finite_difference():
    d = Gamma(2.2)
    o = ORD2
    for t in (0.5, 1.4, 2.6):
        h = 1e-5
        fd = (float(gdwse(d, o, t + h)) - float(gdwse(d, o, t - h))) / (2.0 * h)
        assert gdwse_derivative(d, o, t) == pytest.approx(fd, abs=1e-5 * (1.0 + abs(fd)))


# ---------- monotonicity classification ----------


def test_classify_increasing_families():
    for d in (Exponential(1.0), Weibull(0.6), Gamma(0.5), Pareto(5.0, 1.0)):
        assert classify_gdwse_monotonicity(d, ORD) is Monotonicity.INCREASING


def test_classify_rayleigh_constant_reports_increasing():
    # the residual measure is flat for this family; the weak classification
    # treats a zero slope as non-decreasing
    d = Rayleigh(0.5)
    assert classify_gdwse_monotonicity(d, ORD) is Monotonicity.INCREASING
    assert gdwse_derivative(d, ORD, 0.7) == pytest.approx(0.0, abs=1e-10)


def test_classify_uniform_mixed_with_interior_peak():
    d = Uniform(0.0, 1.0)
    assert classify_gdwse_monotonicity(d, ORD) is Monotonicity.MIXED
    tstar = ORD.gamma / (2.0 * (ORD.gamma + 1.0))
    assert gdwse_derivative(d, ORD, tstar) == pytest.approx(0.0, abs=1e-10)
    assert gdwse_derivative(d, ORD, tstar - 0.05) > 0.0
    assert gdwse_derivative(d, ORD, tstar + 0.05) < 0.0


def test_classify_shifted_uniform_decreasing():
    assert classify_gdwse_monotonicity(Uniform(5.0, 5.5), ORD) is Monotonicity.DECREASING


def test_classify_accepts_custom_grid():
    grid = np.linspace(0.1, 2.0, 16)
    assert classify_gdwse_monotonicity(Exponential(1.0), ORD, grid=grid) is Monotonicity.INCREASING


def test_classify_rejects_empty_and_nan_grids():
    with pytest.raises(GwentropyError, match="at least one"):
        classify_gdwse_monotonicity(Gamma(2.0), ORD, grid=[])
    with pytest.raises(GwentropyError, match="NaN"):
        classify_gdwse_monotonicity(Gamma(2.0), ORD, grid=[1.0, math.nan])


@pytest.mark.parametrize(
    "d,t",
    [(Pareto(5.0, 1.0), 0.5), (Uniform(0.5, 2.0), 0.25), (Affine(Exponential(1.0), 1.0, 1.0), 0.5)],
    ids=["pareto", "uniform", "affine-exponential"],
)
def test_gdwse_derivative_is_zero_below_the_support(d, t):
    # gdwse is constant below the support bottom, where the identity would
    # give -t * exp(-delta * gdwse) / delta
    h = 1e-5
    fd = (float(gdwse(d, ORD, t + h)) - float(gdwse(d, ORD, t - h))) / (2.0 * h)
    assert fd == 0.0
    assert gdwse_derivative(d, ORD, t) == 0.0


def test_classify_ignores_slopes_below_the_support():
    assert classify_gdwse_monotonicity(Pareto(5.0, 1.0), ORD, grid=[0.5, 2.0]) is Monotonicity.INCREASING


@pytest.mark.parametrize(
    "d",
    [
        Exponential(1.3),
        Pareto(5.0, 1.0),
        Uniform(0.5, 2.0),
        Power(2.7, 1.5),
        Rayleigh(0.5),
        Weibull(0.7),
        Gamma(2.0),
        ProportionalReverseHazards(Pareto(5.0, 1.0), 2.2),
        Affine(Gamma(2.0), 1.5, 1.0),
    ],
    ids=["exponential", "pareto", "uniform", "power", "rayleigh", "weibull", "gamma", "prh-pareto", "affine-gamma"],
)
def test_gdwse_derivative_on_a_grid_equals_the_scalar_loop(d):
    grid = np.linspace(d.support[0] / 2.0, float(d.quantile(0.99)), 24)
    got = gdwse_derivative(d, ORD, grid.reshape(4, 6))
    np.testing.assert_array_equal(got.ravel(), [gdwse_derivative(d, ORD, float(t)) for t in grid])


def _integrate_calls(monkeypatch, call) -> int:
    calls = 0
    real = _quad.integrate

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(_quad, "integrate", counting)
    call()
    return calls


def test_classify_is_one_integrate_call(monkeypatch):
    # the whole 64-point grid is one call; a loop over t would make 64
    assert _integrate_calls(monkeypatch, lambda: classify_gdwse_monotonicity(Gamma(2.0), ORD)) == 1


@pytest.mark.parametrize("d,t,most", [(Weibull(1.5), 0.8, 7), (Uniform(0.0, 2.0), 1.0, 5)], ids=["weibull", "uniform"])
def test_bound_check_integrate_calls(monkeypatch, d, t, most):
    assert _integrate_calls(monkeypatch, lambda: bound_check(d, ORD, t=t)) <= most


# ---------- characteristic relations ----------


def test_rayleigh_level_identifies_rate():
    # for this family the residual measure is the constant
    # (1/delta) * log(1 / (2 * rate * gamma)), so the rate can be read back
    o = ORD
    rate = 0.35
    c = float(gdwse(Rayleigh(rate), o, 1.3))
    recovered = math.exp(-o.delta * c) / (2.0 * o.gamma)
    assert recovered == pytest.approx(rate, rel=1e-10)


def test_rayleigh_measure_equals_log_wmrl_ratio():
    # delta * gdwse(t) = log(wmrl(t)) - log(gamma) when wmrl is constant
    o = ORD2
    d = Rayleigh(0.6)
    t = 0.8
    lhs = o.delta * float(gdwse(d, o, t))
    rhs = math.log(d.wmrl(t)) - math.log(o.gamma)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_power_measure_minus_log_wmit_is_constant():
    # delta * gdwfe(t) - log(wmit(t)) = log((c + 2) / (c * gamma + 2)) for all t
    o = ORD2
    c, b = 1.7, 2.0
    d = Power(c, b)
    expected = math.log((c + 2.0) / (c * o.gamma + 2.0))
    for t in (0.4, 1.1, 2.0):
        got = o.delta * float(gdwfe(d, o, t)) - math.log(d.wmit(t))
        assert got == pytest.approx(expected, rel=1e-10)


# ---------- affine identity ----------


def test_affine_identity_exponential():
    res = affine_identity_check(Exponential(1.2), ORD, scale=2.0, shift=0.5)
    assert res.survival < 1e-9
    assert res.failure is None  # unbounded support has no failure side


def test_affine_identity_uniform_both_sides():
    res = affine_identity_check(Uniform(0.2, 1.5), ORD2, scale=1.7, shift=0.3)
    assert res.survival < 1e-9
    assert res.failure is not None and res.failure < 1e-9


def test_affine_identity_dynamic():
    res = affine_identity_check(Exponential(0.9), ORD, scale=2.5, shift=1.0, t=1.8)
    assert res.survival < 1e-9


def test_identity_checks_take_the_wrapper_by_quadrature(monkeypatch):
    # the wrapper's closed form is the identity under test, so the checks
    # must not evaluate the wrapper through it
    def no_closed_form(self, *args):
        raise AssertionError("the wrapper's closed form was used")

    monkeypatch.setattr(ProportionalHazards, "_survival_closed", no_closed_form)
    monkeypatch.setattr(ProportionalReverseHazards, "_failure_closed", no_closed_form)
    assert proportional_model_check(Exponential(1.1), ORD, theta=2.0, side="survival").identity_residual < 1e-9
    assert proportional_model_check(Power(1.3, 1.8), ORD2, theta=1.3, side="failure").identity_residual < 1e-9
    monkeypatch.setattr(Affine, "_survival_closed", no_closed_form)
    monkeypatch.setattr(Affine, "_failure_closed", no_closed_form)
    res = affine_identity_check(Uniform(0.2, 1.5), ORD2, scale=1.7, shift=0.3)
    assert res.survival < 1e-9 and res.failure < 1e-9


@st.composite
def _base_and_order(draw):
    order = draw(st.sampled_from([ORD, ORD2, ORD_BIG]))
    d = draw(st.one_of(
        st.builds(Exponential, st.floats(0.2, 5.0)),
        st.builds(Weibull, st.floats(0.3, 4.0)),
        st.builds(Gamma, st.floats(0.3, 8.0)),
        st.builds(Rayleigh, st.floats(0.2, 5.0)),
        st.builds(lambda lo, width: Uniform(lo, lo + width), st.floats(0.0, 2.0), st.floats(0.1, 3.0)),
        st.builds(Power, st.floats(0.2, 5.0), st.floats(0.5, 3.0)),
        # shape * gamma >= 3 keeps the tail off the band where quadrature
        # misses the mass below its smallest node
        st.builds(lambda k, scale: Pareto(k / order.gamma, scale), st.floats(3.0, 8.0), st.floats(0.3, 3.0)),
    ))
    return d, order


@given(base=_base_and_order(), scale=st.floats(0.2, 5.0), shift=st.floats(0.0, 3.0), q=st.none() | st.floats(0.01, 0.99))
def test_affine_identity_property(base, scale, shift, q):
    d, order = base
    t = None if q is None else float(Affine(d, scale, shift).quantile(q))
    res = affine_identity_check(d, order, scale, shift, t)
    assert res.survival <= 1e-9
    assert res.failure is None or res.failure <= 1e-9


def test_affine_identity_rejects_bad_transform():
    with pytest.raises(GwentropyError):
        affine_identity_check(Exponential(1.0), ORD, scale=-1.0, shift=0.0)
    with pytest.raises(GwentropyError):
        affine_identity_check(Exponential(1.0), ORD, scale=1.0, shift=-0.5)


# ---------- proportional models ----------


def test_proportional_hazards_identity_and_ordering():
    res = proportional_model_check(Exponential(1.1), ORD, theta=2.0, side="survival")
    assert res.applicable
    assert res.identity_residual < 1e-9
    assert res.chain_ok


def test_proportional_reverse_hazards_identity():
    res = proportional_model_check(Power(1.3, 1.8), ORD2, theta=1.3, side="failure")
    assert res.applicable
    assert res.identity_residual < 1e-9
    assert res.chain_ok


def test_proportional_theta_below_one():
    res = proportional_model_check(Exponential(1.0), ORD, theta=0.5, side="survival")
    assert res.applicable and res.chain_ok


def test_proportional_inapplicable_when_transformed_order_degenerates():
    # a huge theta pushes the transformed pair outside the admissible region
    res = proportional_model_check(Exponential(1.0), ORD, theta=150.0, side="survival")
    assert not res.applicable


def test_proportional_rejects_bad_theta_and_side():
    with pytest.raises(GwentropyError):
        proportional_model_check(Exponential(1.0), ORD, theta=0.0)
    with pytest.raises(GwentropyError):
        proportional_model_check(Exponential(1.0), ORD, theta=1.0, side="sideways")


# ---------- bounds ----------


def test_bounds_static_exponential():
    rep = bound_check(Exponential(1.0), ORD_BIG)
    assert rep.all_hold()
    names = {r.name for r in rep.results}
    assert "wmrl-upper" in names and "shannon-lower-survival" in names


def test_bounds_moment_bound_gated_by_gamma():
    # with gamma < 1 the moment comparison genuinely fails, so it must be
    # reported as inapplicable rather than as a violation
    rep = bound_check(Exponential(1.0), ORD)
    wmrl = next(r for r in rep.results if r.name == "wmrl-upper")
    assert not wmrl.applicable
    # demonstrate the raw inequality really does fail here
    lhs = float(gdwse(Exponential(1.0), ORD, 0.0))
    rhs = math.log(Exponential(1.0).wmrl(0.0)) / ORD.delta
    assert lhs > rhs  # 1.3602... > 0.0
    assert rep.all_hold()  # remaining applicable bounds still hold


def test_bounds_dynamic_uniform_full_set():
    rep = bound_check(Uniform(0.2, 1.6), ORD_BIG, t=0.9)
    assert rep.all_hold()
    names = {r.name for r in rep.results}
    assert "interval-logsum-upper-survival" in names
    assert "interval-logsum-upper-failure" in names
    assert "wmit-upper-dynamic" in names


def test_bounds_dynamic_exponential_skips_failure_interval():
    rep = bound_check(Exponential(1.3), ORD_BIG, t=0.8)
    surv = next(r for r in rep.results if r.name == "interval-logsum-upper-survival")
    assert not surv.applicable  # needs a finite right endpoint
    assert rep.all_hold()


@pytest.mark.parametrize("d", [Gamma(2.0), Pareto(1.5, 1.0)], ids=["gamma", "divergent-pareto"])
def test_bound_check_rejects_nan_t(d):
    with pytest.raises(GwentropyError, match="NaN"):
        bound_check(d, ORD, t=math.nan)


def test_bound_margin_orientation():
    # margin >= 0 always means "holds": rhs - lhs for upper bounds,
    # lhs - rhs for lower bounds
    rep = bound_check(Exponential(1.0), ORD_BIG)
    for r in rep.results:
        if not r.applicable:
            continue
        if "upper" in r.name:
            assert r.margin == r.rhs - r.lhs
        else:
            assert r.margin == r.lhs - r.rhs


_G, _F, _I = "requires gamma >= 1", "requires a finite support", "requires t inside the support"
_S, _C = "survival is zero at t", "cdf is zero at t"
_D = "integral of x * sf**0.51 diverges for Pareto tail index 1.5 (needs shape * 0.51 > 2)"
_BOUND_NAMES = (
    "wmrl-upper", "wmit-upper", "shannon-lower-survival", "shannon-lower-failure",
    "wmrl-upper-dynamic", "shannon-lower-survival-dynamic", "interval-logsum-upper-survival",
    "wmit-upper-dynamic", "shannon-lower-failure-dynamic", "interval-logsum-upper-failure",
)
_NEGATIVE_T = GwentropyError("t must be nonnegative")
# at t = inf on an infinite support sf(t) is zero and gdwfe diverges: the
# survival side's three dynamic bounds skip for the first, the failure
# side's with gdwfe's divergence message
_INFINITE_T = (_S,) * 3 + ("failure-side measure diverges on an infinite support",) * 3
_H = "integral of x * sf**1 diverges for Pareto tail index 1.5 (needs shape * 1 > 2)"
# per case, the skip reason of each bound in _BOUND_NAMES order (None where
# it is evaluated), or the error bound_check raises; t runs over None, below
# the support, inside it and at or past its top
_BOUND_TABLE = [
    (Exponential(1.3), ORD, None, (_G, _F, None, _F)),
    (Exponential(1.3), ORD, -1.0, _NEGATIVE_T),
    (Exponential(1.3), ORD, 0.8, (_G, _F, None, _F, _G, None, _F, _G, None, None)),
    (Exponential(1.3), ORD, math.inf, (_G, _F, None, _F, *_INFINITE_T)),
    (Exponential(1.3), ORD_BIG, None, (None, _F, None, _F)),
    (Exponential(1.3), ORD_BIG, -1.0, _NEGATIVE_T),
    (Exponential(1.3), ORD_BIG, 0.8, (None, _F, None, _F, None, None, _F, None, None, None)),
    (Exponential(1.3), ORD_BIG, math.inf, (None, _F, None, _F, *_INFINITE_T)),
    (Uniform(0.2, 1.6), ORD, None, (_G, _G, None, None)),
    (Uniform(0.2, 1.6), ORD, 0.1, (_G, _G, None, None, _G, None, _I, _C, _C, _C)),
    (Uniform(0.2, 1.6), ORD, 0.9, (_G, _G, None, None, _G, None, None, _G, None, None)),
    (Uniform(0.2, 1.6), ORD, 1.6, (_G, _G, None, None, _S, _S, _S, _G, None, None)),
    (Uniform(0.2, 1.6), ORD, 2.0, (_G, _G, None, None, _S, _S, _S, _G, None, _I)),
    (Uniform(0.2, 1.6), ORD_BIG, None, (None, None, None, None)),
    (Uniform(0.2, 1.6), ORD_BIG, 0.1, (None, None, None, None, None, None, _I, _C, _C, _C)),
    (Uniform(0.2, 1.6), ORD_BIG, 0.9, (None,) * 10),
    (Uniform(0.2, 1.6), ORD_BIG, 1.6, (None, None, None, None, _S, _S, _S, None, None, None)),
    (Uniform(0.2, 1.6), ORD_BIG, 2.0, (None, None, None, None, _S, _S, _S, None, None, _I)),
    (Pareto(1.5, 1.0), ORD, None, (_G, _F, _D, _F)),
    (Pareto(1.5, 1.0), ORD, 0.5, (_G, _F, _D, _F, _D, _D, _D, _C, _C, _C)),
    (Pareto(1.5, 1.0), ORD, 2.0, (_G, _F, _D, _F, _D, _D, _D, _G, None, None)),
    (Pareto(1.5, 1.0), ORD, math.inf, (_G, _F, _D, _F, *_INFINITE_T)),
    # gwse converges at gamma = 1.9, but wmrl (gamma = 1) diverges: its two bounds skip
    (Pareto(1.5, 1.0), ORD_BIG, None, (_H, _F, None, _F)),
    (Pareto(1.5, 1.0), ORD_BIG, 0.5, (_H, _F, None, _F, _H, None, _F, _C, _C, _C)),
    (Pareto(1.5, 1.0), ORD_BIG, 2.0, (_H, _F, None, _F, _H, None, _F, None, None, None)),
    (Pareto(1.5, 1.0), ORD_BIG, math.inf, (_H, _F, None, _F, *_INFINITE_T)),
    (Weibull(1.5), ORD, None, (_G, _F, None, _F)),
    (Weibull(1.5), ORD, -1.0, _NEGATIVE_T),
    (Weibull(1.5), ORD, 0.8, (_G, _F, None, _F, _G, None, _F, _G, None, None)),
    (Weibull(1.5), ORD, math.inf, (_G, _F, None, _F, *_INFINITE_T)),
    (Weibull(1.5), ORD_BIG, None, (None, _F, None, _F)),
    (Weibull(1.5), ORD_BIG, -1.0, _NEGATIVE_T),
    (Weibull(1.5), ORD_BIG, 0.8, (None, _F, None, _F, None, None, _F, None, None, None)),
    (Weibull(1.5), ORD_BIG, math.inf, (None, _F, None, _F, *_INFINITE_T)),
]


@pytest.mark.parametrize("d,order,t,expected", _BOUND_TABLE)
def test_bound_report_names_and_skip_reasons(d, order, t, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            bound_check(d, order, t=t)
        return
    rep = bound_check(d, order, t=t)
    assert [(r.name, r.applicable, r.reason) for r in rep.results] == [
        (name, reason is None, reason) for name, reason in zip(_BOUND_NAMES, expected)
    ]


def test_bound_report_failures_empty_on_valid_cases():
    for d in (Exponential(0.7), Rayleigh(0.9), Weibull(1.4), Uniform(0.1, 2.3)):
        rep = bound_check(d, ORD_BIG, t=0.5)
        assert rep.failures() == []


def _bound(rep, name):
    return next(r for r in rep.results if r.name == name)


def test_shannon_rhs_matches_exact_values():
    # X | X > 2 is Pareto(5, 2): entropy log(2/5) + 1 + 1/5, E[log X] = log 2 + 1/5
    dyn = _bound(bound_check(Pareto(5.0, 1.0), ORD, t=2.0), "shannon-lower-survival-dynamic")
    assert dyn.rhs == pytest.approx(math.log(0.8) + 1.4, rel=0.0, abs=1e-12)
    # Exponential(1): entropy 1, E[log X] = -Euler's gamma
    static = _bound(bound_check(Exponential(1.0), ORD), "shannon-lower-survival")
    assert static.rhs == pytest.approx(1.0 - np.euler_gamma, rel=0.0, abs=1e-12)
