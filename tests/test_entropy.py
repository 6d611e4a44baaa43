"""Weighted entropy measures: closed forms, quadrature, dynamic versions."""

import functools
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
import scipy.integrate
from scipy import special
from scipy.integrate import quad

from gwentropy import (
    EntropyKind,
    EntropyOrder,
    EntropyValue,
    gdwfe,
    gdwse,
    gdwfe_max_order_stat,
    gfe,
    gse,
    gwfe,
    gwse,
    gwse_first_order_stat,
)
import gwentropy._quad as _quad
from gwentropy.checks import _shannon_rhs
from gwentropy._quad import REL_TOL, failure_integral, integrate, survival_integral
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
from gwentropy.errors import DivergenceError, GwentropyError, QuadratureError
from gwentropy.verification import run_closed_form_suite

ORD = EntropyOrder(0.26, 1.25)  # gamma = 0.51, delta = 0.99
ORD2 = EntropyOrder(0.8, 1.1)  # gamma = 0.9,  delta = 0.3


# ---------- order validation ----------


def test_order_accessors():
    o = EntropyOrder(0.26, 1.25)
    assert o.gamma == pytest.approx(0.51)
    assert o.delta == pytest.approx(0.99)


@pytest.mark.parametrize(
    "alpha,beta",
    [
        (1.0, 1.0),  # alpha must stay below beta
        (0.2, 0.9),  # beta below one
        (0.1, 1.5),  # alpha <= beta - 1
        (0.5, 1.5),  # boundary alpha == beta - 1
        (5e-324, 1.0),  # alpha above beta - 1, but gamma rounds to 0
        (math.nan, 1.2),
        (0.5, math.inf),
    ],
)
def test_order_rejects(alpha, beta):
    with pytest.raises(GwentropyError):
        EntropyOrder(alpha, beta)


def test_entropy_value_is_float_like():
    v = gwse(Exponential(1.0), ORD)
    assert isinstance(v, EntropyValue)
    assert v.kind is EntropyKind.GWSE
    assert v.order == ORD
    assert float(v) == v.value
    assert math.isclose(v.value + 0.0, float(v))


# ---------- frozen closed-form values ----------


def test_gwse_exponential_frozen():
    # (1/delta) * log((1 + 0) / (rate * gamma) ** 2) at rate 1
    o = ORD
    expected = math.log(1.0 / (1.0 * o.gamma) ** 2) / o.delta
    assert expected == pytest.approx(1.360292026795486, rel=1e-12)
    assert float(gwse(Exponential(1.0), o)) == pytest.approx(expected, rel=1e-12)


def test_gse_exponential_frozen():
    o = ORD2
    expected = math.log(1.0 / (1.7 * o.gamma)) / o.delta
    assert float(gse(Exponential(1.7), o)) == pytest.approx(expected, rel=1e-12)


def test_gse_uniform_frozen():
    # integral of sf**gamma over (a, b) is (b - a) / (gamma + 1)
    o = ORD2
    a, b = 0.5, 2.5
    expected = math.log((b - a) / (o.gamma + 1.0)) / o.delta
    assert float(gse(Uniform(a, b), o)) == pytest.approx(expected, rel=1e-12)


def test_gwse_pareto_frozen():
    o = ORD2  # shape * gamma = 3.6 > 2
    d = Pareto(4.0, 1.5)
    expected = math.log(1.5**2 / (4.0 * o.gamma - 2.0)) / o.delta
    assert float(gwse(d, o)) == pytest.approx(expected, rel=1e-12)


def test_gwse_rayleigh_frozen():
    o = ORD
    d = Rayleigh(0.5)
    expected = math.log(1.0 / (2.0 * 0.5 * o.gamma)) / o.delta
    assert float(gwse(d, o)) == pytest.approx(expected, rel=1e-12)


def test_gwfe_uniform_frozen():
    # cdf-weighted tail at the top: w * (a / (g+1) + w / (g+2)) with w = b - a
    o = ORD
    a, b = 0.0, 2.0
    w = b - a
    expected = math.log(w * (a / (o.gamma + 1.0) + w / (o.gamma + 2.0))) / o.delta
    assert float(gwfe(Uniform(a, b), o)) == pytest.approx(expected, rel=1e-12)


def test_gwfe_power_frozen():
    o = ORD2
    c, b = 1.6, 2.0
    expected = math.log(b**2 / (c * o.gamma + 2.0)) / o.delta
    assert float(gwfe(Power(c, b), o)) == pytest.approx(expected, rel=1e-12)


def test_gfe_power_frozen():
    o = ORD2
    c, b = 1.6, 2.0
    expected = math.log(b / (c * o.gamma + 1.0)) / o.delta
    assert float(gfe(Power(c, b), o)) == pytest.approx(expected, rel=1e-12)


def test_gdwse_exponential_frozen():
    # residual version picks up the t-dependent numerator (1 + t * rate * gamma)
    o = ORD
    rate, t = 1.0, 0.7
    expected = math.log((1.0 + t * rate * o.gamma) / (rate * o.gamma) ** 2) / o.delta
    assert float(gdwse(Exponential(rate), o, t)) == pytest.approx(expected, rel=1e-12)


def test_gdwse_rayleigh_frozen_constant():
    o = ORD
    d = Rayleigh(0.5)
    expected = math.log(1.0 / (2.0 * 0.5 * o.gamma)) / o.delta
    assert float(gdwse(d, o, 1.0)) == pytest.approx(0.6801460134, abs=1e-9)
    assert float(gdwse(d, o, 1.0)) == pytest.approx(expected, rel=1e-12)


def test_gdwfe_power_frozen():
    o = ORD2
    c, b, t = 1.6, 2.0, 1.2
    expected = math.log(t**2 / (c * o.gamma + 2.0)) / o.delta
    assert float(gdwfe(Power(c, b), o, t)) == pytest.approx(expected, rel=1e-12)


# ---------- closed forms agree with quadrature ----------

CASES = [
    (Exponential(1.3), ORD),
    (Exponential(0.6), ORD2),
    (Rayleigh(0.8), ORD),
    (Uniform(0.3, 1.8), ORD2),
    (Pareto(6.0, 1.1), ORD),
    (Weibull(2.2), ORD),
    (Gamma(3.1), ORD2),
]


SURVIVAL_IDS = [
    "Exponential-EntropyOrder0",
    "Exponential-EntropyOrder1",
    "Rayleigh-EntropyOrder",
    "Uniform-EntropyOrder",
    "Pareto-EntropyOrder",
    "Weibull-EntropyOrder",
    "Gamma-EntropyOrder",
]
FAILURE_CASES = [(Uniform(0.3, 1.8), ORD2), (Power(1.5, 2.4), ORD), (Power(0.7, 1.2), ORD2)]

# Every case runs all four power integrals: weighted or not, static or
# dynamic at the 0.3 quantile.  The weighted static one is gwse / gwfe and
# keeps the case's plain id.
FORMS = [("", True, None), ("-unweighted", False, None), ("-dynamic", True, 0.3), ("-unweighted-dynamic", False, 0.3)]


def _route_params(cases, ids):
    return [
        pytest.param(d, o, weighted, q, id=name + suffix)
        for (d, o), name in zip(cases, ids)
        for suffix, weighted, q in FORMS
    ]


def _routes(integral, d, o, t, weighted):
    return [math.log(integral(d, o.gamma, t, m, weighted)) / o.delta for m in ("quadrature", "auto")]


@pytest.mark.parametrize("d,o,weighted,q", _route_params(CASES, SURVIVAL_IDS))
def test_survival_routes_agree(d, o, weighted, q):
    t = 0.0 if q is None else float(d.quantile(q))
    a, b = _routes(survival_integral, d, o, t, weighted)
    assert a == pytest.approx(b, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("d,o,weighted,q", _route_params(FAILURE_CASES, ["uniform", "power-a", "power-b"]))
def test_failure_routes_agree(d, o, weighted, q):
    t = None if q is None else float(d.quantile(q))
    a, b = _routes(failure_integral, d, o, t, weighted)
    assert a == pytest.approx(b, rel=1e-8, abs=1e-10)


def test_quadrature_meets_rel_tol_on_tiny_integrals():
    # the integral is about 5e-11, far below any absolute floor; only the
    # relative tolerance can make quadrature meet the closed form here
    d = Power(0.2, 1.0)
    for weighted in (True, False):
        quad = failure_integral(d, 0.51, 1e-5, "quadrature", weighted)
        closed = failure_integral(d, 0.51, 1e-5, "closed", weighted)
        assert quad == pytest.approx(closed, rel=1e-10, abs=0.0)


def _with_fallbacks(call):
    # the value of call() and how many integrals it left to quad, which
    # integrate imports from scipy.integrate when it falls back
    with mock.patch.object(scipy.integrate, "quad", wraps=scipy.integrate.quad) as spy:
        return call(), spy.call_count


def test_integrate_falls_back_to_quad_per_element():
    # tanh-sinh converges only algebraically on an interior cusp, so the
    # second element is still short of REL_TOL at the last level and is
    # integrated again by quad; the first keeps the rule's own value
    def f(x, c):
        return np.sqrt(np.abs(x - c))

    alone = integrate(f, 0.0, 1.0, args=(0.0,))
    got, fallbacks = _with_fallbacks(lambda: integrate(f, 0.0, [1.0, 2.0], args=(np.array([0.0, 0.7]),)))
    want = quad(lambda x: float(f(np.asarray(x), 0.7)), 0.0, 2.0, epsabs=0.0, epsrel=REL_TOL, limit=_quad.MAX_SUBDIVISIONS)[0]
    assert fallbacks == 1
    assert got[0] == alone == pytest.approx(2.0 / 3.0, rel=REL_TOL)
    assert got[1] == want


def test_quad_fallback_short_of_rel_tol_raises():
    # Gamma(60)'s window loses its mass next to t (ROADMAP item 10), so quad
    # too falls short: a typed error, not a value 2.1e-4 off and a warning
    with pytest.raises(QuadratureError, match="quad fell short of rtol 1e-10"):
        survival_integral(Gamma(60.0), 0.51, 0.0, "quadrature", weighted=False)


def test_pareto_boundary_case_meets_rel_tol():
    # shape * gamma = 2.3 leaves about v**-0.98 at the window's open end,
    # where tanh-sinh stops at its last level and the quad fallback takes over
    d = Pareto(2.3 / 0.15, 1.0)
    got, fallbacks = _with_fallbacks(lambda: survival_integral(d, 0.15, 0.0, "quadrature"))
    assert fallbacks == 1
    assert got == pytest.approx(survival_integral(d, 0.15, 0.0, "closed"), rel=REL_TOL, abs=0.0)


def _tanhsinh_integrate(f, a, b, args=()):
    # the reference: the same rule run by scipy.integrate.tanhsinh, with the
    # same checks and the same quad fallback
    a, b, *args = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float), *args)

    def inside(x, a, b, *args):
        edge = (x <= a) | (x >= b)
        fx = f(np.where(edge, (a + b) / 2.0, x), *args)
        assert np.all(np.isfinite(fx))
        return np.where(edge, 0.0, fx)

    res = scipy.integrate.tanhsinh(inside, a, b, args=(a, b, *args), rtol=REL_TOL, atol=0.0, minlevel=3)
    out = np.array(res.integral, dtype=float)
    for i in np.ndindex(out.shape):
        if res.status[i] != 0:
            row = [np.reshape(v[i], (1, 1)) for v in (a, b, *args)]
            out[i] = scipy.integrate.quad(
                lambda x: inside(np.full((1, 1), x), *row)[0, 0], a[i], b[i], epsabs=0.0, epsrel=REL_TOL, limit=_quad.MAX_SUBDIVISIONS
            )[0]
    return out


def _assert_matches_tanhsinh(call, rtol=1e-13):
    # the same value, and the same integrals left to quad (quad alone would
    # meet a smooth reference to about 1e-15 as well); call must reach
    # integrate through the _quad module
    got, fallbacks = _with_fallbacks(call)
    with mock.patch.object(_quad, "integrate", _tanhsinh_integrate):
        want, want_fallbacks = _with_fallbacks(call)
    assert fallbacks == want_fallbacks
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)
    return got


_BASES = st.one_of(
    st.builds(Exponential, st.floats(0.2, 5.0)),
    st.builds(Pareto, st.floats(0.5, 20.0), st.floats(0.5, 2.0)),
    st.builds(Weibull, st.floats(0.3, 4.0)),
    st.builds(Gamma, st.floats(0.3, 8.0)),
    st.builds(lambda lo, width: Uniform(lo, lo + width), st.floats(0.0, 2.0), st.floats(0.1, 3.0)),
    st.builds(Power, st.floats(0.2, 5.0), st.floats(0.5, 3.0)),
)
_FAMILIES = st.one_of(
    _BASES,
    st.builds(ProportionalHazards, _BASES, st.floats(0.3, 3.0)),
    st.builds(ProportionalReverseHazards, _BASES, st.floats(0.3, 3.0)),
)


@given(d=_FAMILIES, side=st.sampled_from(["survival", "failure"]), q=st.floats(0.01, 0.99), g=st.floats(0.2, 3.0), weighted=st.booleans())
# split windows: sf(t) > 3/4 on the survival side, cdf(t) > 3/4 on the failure side
@example(d=Exponential(1.0), side="survival", q=0.1, g=0.51, weighted=True)
@example(d=Weibull(0.7), side="failure", q=0.9, g=1.5, weighted=False)
@example(d=ProportionalReverseHazards(Pareto(4.0, 1.0), 2.0), side="survival", q=0.2, g=2.0, weighted=True)
def test_integrate_matches_scipy_tanhsinh(d, side, q, g, weighted):
    t = float(d.quantile(q))
    integral = survival_integral if side == "survival" else failure_integral
    try:
        _assert_matches_tanhsinh(lambda: integral(d, g, t, "quadrature", weighted))
    except DivergenceError:  # a Pareto tail too heavy for g
        assume(False)


@given(
    d=st.one_of(_FAMILIES, st.builds(Affine, _BASES, st.floats(0.3, 3.0), st.floats(0.0, 2.0))),
    side=st.sampled_from(["survival", "failure"]),
    qs=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6),
    g=st.floats(0.2, 3.0),
    method=st.sampled_from(["auto", "quadrature"]),
    weighted=st.booleans(),
)
# Power's and Pareto's sf round a Python float and an array apart at some t
@example(d=Power(2.7, 1.5), side="survival", qs=np.linspace(0.02, 0.98, 49).tolist(), g=0.51, method="quadrature", weighted=True)
@example(d=Pareto(5.0, 1.0), side="failure", qs=np.linspace(0.02, 0.98, 49).tolist(), g=0.9, method="auto", weighted=False)
def test_array_t_equals_scalar_calls(d, side, qs, g, method, weighted):
    # the 0.1 and 0.9 quantiles give each side a window that is split (mass
    # past 3/4) and one that is not; below the support bottom t is clamped
    integral = survival_integral if side == "survival" else failure_integral
    ts = [float(d.quantile(q)) for q in (0.1, 0.9, *qs)]
    if side == "survival":
        ts.append(d.support[0] / 2.0)
    try:
        got = integral(d, g, np.array([ts]), method, weighted)
    except DivergenceError:  # a Pareto tail too heavy for g
        assume(False)
    want = [integral(d, g, t, method, weighted) for t in ts]
    assert got.shape == (1, len(ts)) and all(type(v) is float for v in want)
    np.testing.assert_array_equal(got[0], want)


def test_empty_t_gives_an_empty_array():
    assert survival_integral(Gamma(2.0), 0.51, []).shape == (0,)
    assert failure_integral(Uniform(0.0, 2.0), 0.51, np.empty((0, 3)), "quadrature").shape == (0, 3)


@pytest.mark.parametrize(
    "d", [Gamma(1e-300), Uniform(0.0, 1e-300), Exponential(4.5e206), Exponential(2.6e-240)], ids=["gamma", "uniform", "exp-big", "exp-small"]
)
def test_integral_outside_the_float_range_is_a_typed_error(d):
    # the integral over- or underflows, by closed form or by quadrature,
    # where its log, the measure, would be an ordinary number
    with pytest.raises(GwentropyError, match="not a positive finite number"):
        gwse(d, ORD)
    with pytest.raises(GwentropyError, match="not a positive finite number"):
        survival_integral(d, 0.51, np.zeros(2))


def test_window_mass_is_the_scalar_sf_at_each_t():
    # Power's sf rounds a Python float and an array apart in the last bit
    # (numpy scalar pow against array pow): the integrand sees the mass of a
    # scalar call at each t of an array
    d = Power(2.7, 1.5)
    ts = np.linspace(0.2, 1.4, 200)
    seen = set()

    def fn(x, v, w):
        seen.update(np.ravel(w).tolist())
        return np.ones_like(v)

    _quad.window_integral(d, "survival", ts, fn)
    assert seen == {float(d.sf(t)) for t in ts.tolist()}


# elementwise integrand sets f(x, p) on [a, b], with their exact integrals
_LEVEL_CASES = {
    # scipy stops these at levels 3, 3, 6, 7, 8, 9 and 10 and leaves the last
    # to quad
    "lorentzian": (
        lambda x, k: 1.0 / (k + x * x), -1.0, np.linspace(0.5, 2.0, 8),
        np.array([1.0, 0.5, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 1e-5]),
        lambda k, b: (np.arctan(b / np.sqrt(k)) + np.arctan(1.0 / np.sqrt(k))) / np.sqrt(k),
    ),
    # the d4 term, |f w| at the outermost node, is large near p = -1: levels
    # 3, 3, 3 and 6, then quad
    "power": (lambda x, p: x**p, 0.0, 1.0, np.array([-0.3, -0.9, -0.96, -0.97, -0.975, -0.98, -0.99]), lambda p, b: 1.0 / (p + 1.0)),
    # levels 3 and 4, where the level-3 estimate decides
    "exponential": (lambda x, k: np.exp(-k * x), 0.0, 1.0, np.array([0.1, 1.0, 10.0, 100.0, 210.0, 1000.0]), lambda k, b: -np.expm1(-k) / k),
}


@pytest.mark.parametrize("f,a,b,p,exact", list(_LEVEL_CASES.values()), ids=list(_LEVEL_CASES))
def test_integrate_matches_scipy_tanhsinh_level_by_level(f, a, b, p, exact):
    # one call each, so the later levels and the shrinking set of live
    # elements are compared too
    got = _assert_matches_tanhsinh(lambda: _quad.integrate(f, a, b, args=(p,)))
    # the error estimate lets x**-0.97 stop 5.3e-10 off, in scipy's rule too
    np.testing.assert_allclose(got, exact(p, b), rtol=1e-9, atol=0.0)


@functools.cache
def _solo(name: str, i: int) -> tuple[bytes, int]:
    # element i of an integrand set integrated alone: its bits and quad fallbacks
    f, a, b, p, _ = _LEVEL_CASES[name]
    got, fallbacks = _with_fallbacks(lambda: integrate(f, a, np.broadcast_to(b, p.shape)[i], args=(p[i],)))
    return got.tobytes(), fallbacks


@given(name=st.sampled_from(list(_LEVEL_CASES)), data=st.data())
def test_integrate_is_batch_invariant(name, data):
    # each element of a batch stops at its own level whatever else is live:
    # any subset of an integrand set, in any order, gives each element the
    # bits of its solo call and leaves quad what the solo calls leave it
    f, a, b, p, _ = _LEVEL_CASES[name]
    rows = data.draw(st.lists(st.integers(0, p.size - 1), min_size=1, max_size=p.size, unique=True))
    got, fallbacks = _with_fallbacks(lambda: integrate(f, a, np.broadcast_to(b, p.shape)[rows], args=(p[rows],)))
    assert [v.tobytes() for v in got] == [_solo(name, i)[0] for i in rows]
    assert fallbacks == sum(_solo(name, i)[1] for i in rows)



_QUAD_PINNED = {
    "exp": Exponential(1.3),
    "pareto": Pareto(4.5, 0.8),
    "uniform": Uniform(0.4, 2.1),
    "power": Power(1.7, 2.2),
    "rayleigh": Rayleigh(0.7),
    "weibull": Weibull(0.6),
    "gamma": Gamma(2.6),
    "ph": ProportionalHazards(Weibull(1.8), 0.4),
    "prh": ProportionalReverseHazards(Gamma(2.6), 2.5),
    "affine": Affine(Pareto(4.5, 0.8), 1.5, 0.5),
}
# sha256 of the quadrature route's bits (first 16 hex digits): per family,
# both integrals at both weights and two gammas, on windows split (mass past
# 3/4) and not and at one t array, and the Shannon right-hand side of checks;
# per integrand set of _LEVEL_CASES, one integrate call and its quad
# fallbacks; the closed-form suite's errors
_QUAD_DIGESTS = {
    "exp": "eababeedbb93a577",
    "pareto": "f0899900eb62e57b",
    "uniform": "b8112d4791292e92",
    "power": "39846afae6a3079b",
    "rayleigh": "d9ebd44c0f61f188",
    "weibull": "d298f86eb5abdac3",
    "gamma": "8eee36ae0ee5bc5c",
    "ph": "5b756fa96ee0c60b",
    "prh": "d1dcbaa041fddace",
    "affine": "5b81d15d1a8b1e55",
    "integrate-lorentzian": "ca9c6d6c241371ce",
    "integrate-power": "193dcae806bb283d",
    "integrate-exponential": "e424965fd409f5ac",
    "suite": "67099621bcca34df",
}


def _quad_bits(name: str) -> bytes:
    if name == "suite":
        return np.array([c.max_rel_err for c in run_closed_form_suite(draws=20, seed=20240)]).tobytes()
    if name.startswith("integrate-"):
        f, a, b, p, _ = _LEVEL_CASES[name.removeprefix("integrate-")]
        got, fallbacks = _with_fallbacks(lambda: integrate(f, a, b, args=(p,)))
        return got.tobytes() + str(fallbacks).encode()
    d = _QUAD_PINNED[name]
    ts = [float(d.quantile(q)) for q in (0.1, 0.9)]
    out = []
    for side, integral in (("survival", survival_integral), ("failure", failure_integral)):
        for weighted in (True, False):
            for g in (0.51, 1.7):
                for t in (*ts, d.quantile(np.array([0.05, 0.3, 0.6, 0.95]))):
                    out.append(np.asarray(integral(d, g, t, "quadrature", weighted), dtype=float).tobytes())
        out.append(np.float64(_shannon_rhs(d, float(d.quantile(0.5)), side)).tobytes())
    return b"|".join(out)


@pytest.mark.parametrize("name", [*_QUAD_PINNED, *(f"integrate-{k}" for k in _LEVEL_CASES), "suite"])
def test_quadrature_route_keeps_its_bits(name):
    assert hashlib.sha256(_quad_bits(name)).hexdigest()[:16] == _QUAD_DIGESTS.get(name)

@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "d,inverse,exact,limit",
    [
        # integral of x**k * x**(-5 g) over [1, inf)
        (Pareto(5.0, 1.0), "_isf", lambda k, g: 1.0 / (5.0 * g - k - 1.0), 0.0),
        # integral of x**k * (1 - sqrt(x))**g over [0, 1], u = sqrt(x)
        (Power(0.5, 1.0), "_quantile", lambda k, g: 2.0 * special.beta(2.0 * (k + 1.0), g + 1.0), math.inf),
    ],
    ids=["pareto", "power"],
)
def test_outermost_nodes_raise_no_warning(d, inverse, exact, limit):
    # at nodes within 1e-300 of v = 0 Pareto's pdf overflows (x = isf(v) near
    # 1e60) to its limit 0, and Power's pdf reads its limit inf at
    # x = quantile(v) = 0; neither warns (a warning is an error here)
    x = getattr(d, inverse)(np.array([1e-300]))
    assert x[0] > 1e59 if limit == 0.0 else x[0] == 0.0
    assert d.pdf(x)[0] == limit
    for k, weighted in ((1, True), (0, False)):
        got = survival_integral(d, 0.51, 0.0, "quadrature", weighted)
        assert got == pytest.approx(exact(k, 0.51), rel=REL_TOL, abs=0.0)


def test_non_finite_integrand_raises(monkeypatch):
    # without the pdf = 0 guard the window integrand divides by the density
    # where x(v) rounds below this support's bottom; integrate must refuse
    # the inf, where tanhsinh alone would replace it by a finite neighbour
    def unguarded(d, g, weighted):
        def integrand(x, v, w):
            with np.errstate(divide="ignore"):
                p = np.exp(g * (np.log(v) - np.log(w))) / d.pdf(x)
            return x * p if weighted else p

        return integrand

    base, a, b = Uniform(0.1, 0.5), 2.1, 1.3
    d = Affine(base, a, b)
    # with the guard: the wrapper's closed form, the affine identity over the base's
    exact = failure_integral(d, 0.51, 2.0, "closed")
    assert failure_integral(d, 0.51, 2.0, "quadrature") == pytest.approx(exact, rel=REL_TOL, abs=0.0)
    monkeypatch.setattr(_quad, "_power", unguarded)
    with pytest.raises(QuadratureError, match="not finite"):
        failure_integral(d, 0.51, 2.0, "quadrature")


def test_heavy_tail_window_where_isf_overflows():
    # a Pareto tail of shape below 1 has isf(v) = v**(-1/shape) = inf at the
    # outermost tanhsinh nodes, where pdf is 0: the weighted integrand must
    # read 0 there, not inf * 0
    d = Pareto(0.9, 1.0)
    with np.errstate(over="ignore"):
        assert float(d._isf(np.array(1e-300))) == math.inf
    got = survival_integral(d, 2.5, 1.0, "quadrature")
    assert got == pytest.approx(1.0 / (0.9 * 2.5 - 2.0), rel=REL_TOL, abs=0.0)
    # PRH has no survival-side closed form, so auto runs the same quadrature; reference by
    # 50-digit mpmath quadrature of x * sf(x)**2.5, sf = 1 - (1 - x**-0.9)**3
    got = survival_integral(ProportionalReverseHazards(d, 3.0), 2.5, 1.0)
    assert got == pytest.approx(42.5459320858228006592129267989, rel=REL_TOL, abs=0.0)


@pytest.mark.parametrize("t,ref",[(20.0, 43.0603614612227422752720640772), (30.0, 62.6682045367206908084658782489)])
def test_prh_deep_survival_meets_rel_tol(t, ref):
    # sf(t) of PRH(Exponential(1), 5) is about 5 exp(-t): 1 - cdf would keep
    # only its leading digits; references by 40-digit mpmath quadrature of
    # x * (sf(x) / sf(t))**0.51 with sf = -expm1(5 log1p(-exp(-x)))
    got = survival_integral(ProportionalReverseHazards(Exponential(1.0), 5.0), 0.51, t, "quadrature")
    assert got == pytest.approx(ref, rel=REL_TOL, abs=0.0)


_FAILURE_WINDOW_NEAR_SF_ZERO = pytest.mark.xfail(
    strict=True, reason="the window's upper half loses the stretch where cdf rounds to 1 (ROADMAP item 10)"
)


@pytest.mark.parametrize(
    "t", [680.0, pytest.param(690.0, marks=_FAILURE_WINDOW_NEAR_SF_ZERO), pytest.param(1000.0, marks=_FAILURE_WINDOW_NEAR_SF_ZERO)]
)
def test_gdwfe_where_the_cdf_rounds_to_one(t):
    # past x = 60 the cdf of Exponential(1) is 1 to far below an ulp of the
    # integral, whose tail there is (t**2 - 3600) / 2 exactly; as sf(t) nears
    # 0 the window's upper half, run in sf from sf(t) up, loses that stretch:
    # 690 once gave 9.3723 with an IntegrationWarning and now raises
    # QuadratureError as quad falls short, 1000 a QuadratureError (not finite)
    head = quad(lambda x: x * (-math.expm1(-x)) ** ORD.gamma, 0.0, 60.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    want = math.log(head + (t * t - 3600.0) / 2.0) / ORD.delta
    assert gdwfe(Exponential(1.0), ORD, t).value == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("base,theta", [(Exponential(1.0), 5.0), (Weibull(0.7), 3.0)], ids=["exponential", "weibull"])
def test_prh_survival_quadrature_meets_rel_tol(base, theta):
    # the survival-side inverse of a PRH model must not round 1 - v: against
    # an x-space reference with sf = -expm1(theta * log1p(-base.sf))
    d = ProportionalReverseHazards(base, theta)
    g = 0.51

    def sf(x):
        return -math.expm1(theta * math.log1p(-float(base.sf(x))))

    ref = quad(lambda x: x * sf(x) ** g, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=500)[0]
    assert survival_integral(d, g, 0.0, "quadrature") == pytest.approx(ref, rel=1e-10, abs=0.0)


@pytest.mark.parametrize(
    "base,reduced",
    [
        (Exponential(1.0), lambda th: Exponential(th)),
        (Rayleigh(0.7), lambda th: Rayleigh(0.7 * th)),
        (Pareto(400.0, 1.2), lambda th: Pareto(400.0 * th, 1.2)),
    ],
    ids=["exponential", "rayleigh", "pareto"],
)
@pytest.mark.parametrize("theta", [0.01, 0.02, 0.03])
def test_ph_small_theta_quadrature_meets_rel_tol(base, reduced, theta):
    # with a small theta the window reaches far past where base.sf underflows,
    # and that tail carries more than REL_TOL of the integral
    d = ProportionalHazards(base, theta)
    for g in (ORD.gamma, 1.0):
        for t in (0.0, 3.0):
            got = survival_integral(d, g, t, "quadrature")
            assert got == pytest.approx(survival_integral(reduced(theta), g, t, "closed"), rel=REL_TOL, abs=0.0)
    assert gwse(d, ORD, method="quadrature").value == pytest.approx(gwse(reduced(theta), ORD).value, rel=REL_TOL)


@pytest.mark.parametrize(
    "theta,g,t,ref",
    [
        (0.03, 1.0, 0.5, 1254.95107084457645950761549678),
        (0.02, 0.3, 3.0, 28992.647639649383943),
    ],
)
def test_ph_gamma_small_theta_quadrature_meets_rel_tol(theta, g, t, ref):
    # integral of x * (sf(x)/sf(t))**(theta * g) from t with sf = (1 + x) exp(-x),
    # references by 30-digit mpmath quadrature
    got = survival_integral(ProportionalHazards(Gamma(2.0), theta), g, t, "quadrature")
    assert got == pytest.approx(ref, rel=REL_TOL, abs=0.0)


def test_closed_method_requires_closed_form():
    with pytest.raises(GwentropyError):
        gwse(Gamma(2.0), ORD, method="closed")
    with pytest.raises(GwentropyError):
        gwse(Exponential(1.0), ORD, method="newton")
    with pytest.raises(GwentropyError):
        Gamma(2.0).wmrl(0.5, method="closed")
    with pytest.raises(GwentropyError):
        Exponential(1.0).wmrl(0.5, method="newton")
    with pytest.raises(GwentropyError):
        Power(1.8, 2.0).wmit(1.0, method="newton")


def test_affine_shift_below_zero_start():
    # start-of-support integration keeps the weighted integral finite and
    # matches quadrature when the support begins above zero
    d = Affine(Exponential(1.2), 1.5, 2.0)
    a = float(gwse(d, ORD, method="quadrature"))
    b = float(gwse(d, ORD))
    assert a == pytest.approx(b, rel=1e-9)


# Each wrapper against the family it reduces to exactly, from drawn
# parameters p, q, r in [0.3, 3] and the exponent g: (side, wrapper, family)
_REDUCTIONS = {
    "ph-exponential": lambda p, q, r, g: ("survival", ProportionalHazards(Exponential(p), q), Exponential(p * q)),
    "ph-rayleigh": lambda p, q, r, g: ("survival", ProportionalHazards(Rayleigh(p), q), Rayleigh(p * q)),
    "ph-pareto": lambda p, q, r, g: (
        "survival", ProportionalHazards(Pareto((2.1 + p) / (g * min(q, 1.0)), r), q), Pareto((2.1 + p) / (g * min(q, 1.0)) * q, r),
    ),
    "prh-uniform": lambda p, q, r, g: ("failure", ProportionalReverseHazards(Uniform(0.0, p), q), Power(q, p)),
    "prh-power": lambda p, q, r, g: ("failure", ProportionalReverseHazards(Power(p, r), q), Power(p * q, r)),
    "affine-exponential": lambda p, q, r, g: ("survival", Affine(Exponential(p), q), Exponential(p / q)),
    "affine-rayleigh": lambda p, q, r, g: ("survival", Affine(Rayleigh(p), q), Rayleigh(p / (q * q))),
    "affine-pareto": lambda p, q, r, g: ("survival", Affine(Pareto((2.1 + p) / g, r), q), Pareto((2.1 + p) / g, q * r)),
    "affine-uniform-survival": lambda p, q, r, g: (
        "survival", Affine(Uniform(r / 3.0, r / 3.0 + p), q, r), Uniform(q * r / 3.0 + r, q * (r / 3.0 + p) + r),
    ),
    "affine-uniform-failure": lambda p, q, r, g: (
        "failure", Affine(Uniform(r / 3.0, r / 3.0 + p), q, r), Uniform(q * r / 3.0 + r, q * (r / 3.0 + p) + r),
    ),
    "affine-uniform-from-0": lambda p, q, r, g: ("failure", Affine(Uniform(0.0, p), q), Uniform(0.0, q * p)),
    "affine-power": lambda p, q, r, g: ("failure", Affine(Power(p, r), q), Power(p, q * r)),
}


@given(
    case=st.sampled_from(sorted(_REDUCTIONS)),
    p=st.floats(0.3, 3.0),
    q=st.floats(0.3, 3.0),
    r=st.floats(0.3, 3.0),
    g=st.floats(0.2, 3.0),
    u=st.floats(0.0, 0.99),
    weighted=st.booleans(),
)
def test_wrapper_closed_form_equals_reduced_family(case, p, q, r, g, u, weighted):
    # static (u = 0) or dynamic at the u quantile of the window side
    side, wrapper, family = _REDUCTIONS[case](p, q, r, g)
    lo, hi = family.support
    if side == "survival":
        t = float(wrapper._quantile(u))
        lo = max(t, lo)
        got, want = (survival_integral(d, g, t, "closed", weighted) for d in (wrapper, family))
    else:
        t = None if u == 0.0 else float(wrapper._quantile(1.0 - u))
        hi = hi if t is None else min(t, hi)
        got, want = (failure_integral(d, g, t, "closed", weighted) for d in (wrapper, family))
    # the two sides round the ends of a finite window [lo, hi] differently, so
    # its width is known to eps * max(|lo|, |hi|) only
    cond = 1.0 if math.isinf(hi) else max(1.0, hi / (hi - lo))
    assert got == pytest.approx(want, rel=1e-13 * cond, abs=0.0)


# ---------- divergence and domain guards ----------


def test_gwfe_requires_finite_top():
    with pytest.raises(DivergenceError):
        gwfe(Exponential(1.0), ORD)
    with pytest.raises(DivergenceError):
        gfe(Gamma(2.0), ORD)


@pytest.mark.parametrize("d", [Gamma(2.0), Exponential(1.0), Weibull(1.5)], ids=lambda d: type(d).__name__)
def test_failure_side_at_infinite_t_diverges_on_an_infinite_support(d):
    # min(inf, inf) = inf makes the window the whole support, as t = None does
    with pytest.raises(DivergenceError):
        gdwfe(d, ORD, math.inf)
    with pytest.raises(DivergenceError):
        gdwfe_max_order_stat(d, ORD, 3, math.inf)
    with pytest.raises(DivergenceError):
        failure_integral(d, ORD.gamma, math.inf)
    with pytest.raises(DivergenceError):
        failure_integral(d, ORD.gamma, np.array([1.0, math.inf]))
    assert failure_integral(Uniform(0.0, 2.0), ORD.gamma, math.inf) == failure_integral(Uniform(0.0, 2.0), ORD.gamma)


def test_pareto_tail_divergence():
    # shape * gamma must exceed 2 for the weighted survival integral
    o = ORD  # gamma = 0.51
    with pytest.raises(DivergenceError):
        gwse(Pareto(3.0, 1.0), o)  # 1.53 < 2
    with pytest.raises(DivergenceError):
        gse(Pareto(1.5, 1.0), o)  # 0.765 < 1
    assert math.isfinite(float(gwse(Pareto(5.0, 1.0), o)))  # 2.55 > 2


def test_dynamic_domain_guards():
    with pytest.raises(GwentropyError):
        gdwse(Uniform(0.0, 1.0), ORD, 1.0)  # survival vanishes
    with pytest.raises(GwentropyError):
        gdwfe(Uniform(0.5, 1.0), ORD, 0.3)  # no mass accumulated yet
    with pytest.raises(GwentropyError):
        gdwse(Exponential(1.0), ORD, -0.1)


@pytest.mark.parametrize(
    "d",
    [Gamma(2.0), Weibull(1.5), Affine(Gamma(2.0), 1.5, 1.0), Exponential(1.0), Uniform(0.5, 2.0)],
    ids=["gamma", "weibull", "affine-gamma", "exponential", "uniform"],
)
def test_nan_t_is_rejected(d):
    # a NaN t is rejected by name before any function of the distribution
    # reads it
    calls = [
        lambda: gdwse(d, ORD, math.nan),
        lambda: gdwfe(d, ORD, math.nan),
        lambda: survival_integral(d, 0.51, np.array([1.0, math.nan])),
        lambda: failure_integral(d, 0.51, np.array([math.nan, 1.0]), "quadrature"),
    ]
    for call in calls:
        with pytest.raises(GwentropyError, match="NaN"):
            call()


def test_gdwse_at_zero_matches_static():
    d = Weibull(1.6)
    assert float(gdwse(d, ORD, 0.0)) == pytest.approx(float(gwse(d, ORD)), rel=1e-10)


def test_gdwfe_beyond_top_matches_static():
    d = Power(1.4, 2.0)
    v_top = float(gdwfe(d, ORD, 2.0))
    v_past = float(gdwfe(d, ORD, 5.0))
    v_static = float(gwfe(d, ORD))
    assert v_top == pytest.approx(v_static, rel=1e-12)
    assert v_past == pytest.approx(v_static, rel=1e-12)


# ---------- order statistics ----------


def test_first_order_stat_reduces_to_parent():
    d = Exponential(1.1)
    one = float(gwse_first_order_stat(d, ORD, 1))
    assert one == pytest.approx(float(gwse(d, ORD)), rel=1e-12)


def test_first_order_stat_exponential_frozen():
    # minimum of n exponentials is exponential with rate n * rate, so the
    # closed form applies with gamma replaced by n * gamma
    o, rate, n = ORD, 1.3, 7
    expected = math.log(1.0 / (rate * n * o.gamma) ** 2) / o.delta
    assert float(gwse_first_order_stat(Exponential(rate), o, n)) == pytest.approx(
        expected, rel=1e-12
    )


def test_max_order_stat_reduces_to_parent():
    d = Power(1.4, 2.0)
    one = float(gdwfe_max_order_stat(d, ORD, 1, 2.0))
    assert one == pytest.approx(float(gwfe(d, ORD)), rel=1e-12)


def test_max_order_stat_power_is_power():
    # maximum of n power variables is again power with shape n * c
    o, c, b, n, t = ORD2, 1.2, 1.5, 5, 1.1
    direct = float(gdwfe(Power(n * c, b), o, t))
    via_stat = float(gdwfe_max_order_stat(Power(c, b), o, n, t))
    assert via_stat == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("bad", [0, -3, 2.5, True, np.True_, np.float64(3.0), "3", np.int64(0)])
def test_order_stat_size_validation(bad):
    with pytest.raises(GwentropyError, match="n must be a positive integer"):
        gwse_first_order_stat(Exponential(1.0), ORD, bad)
    with pytest.raises(GwentropyError, match="n must be a positive integer"):
        gdwfe_max_order_stat(Power(2.0, 1.0), ORD, bad, 0.5)


def test_order_stat_size_takes_any_integer_type():
    d = Exponential(1.0)
    assert gwse_first_order_stat(d, ORD, np.int64(3)) == gwse_first_order_stat(d, ORD, 3)
    assert gdwfe_max_order_stat(Power(2.0, 1.0), ORD, np.uint8(3), 0.5) == gdwfe_max_order_stat(Power(2.0, 1.0), ORD, 3, 0.5)


# ---------- scale behaviour ----------


def test_gwse_scale_rule():
    # scaling by c shifts the weighted measure by 2 log(c) / delta
    d = Exponential(1.0)
    o = ORD
    base = float(gwse(d, o))
    scaled = float(gwse(Exponential(1.0 / 3.0), o))  # same shape, scale 3
    assert scaled - base == pytest.approx(2.0 * math.log(3.0) / o.delta, rel=1e-10)


def test_gse_scale_rule():
    d = Exponential(1.0)
    o = ORD2
    base = float(gse(d, o))
    scaled = float(gse(Exponential(0.25), o))
    assert scaled - base == pytest.approx(math.log(4.0) / o.delta, rel=1e-10)


def test_rayleigh_gse_uses_scaled_erfcx():
    # unweighted residual form: sqrt(pi / (4 * rate * gamma)) * erfcx(t * sqrt(rate * gamma))
    o = ORD
    rate, t = 0.7, 0.9
    g = o.gamma
    expected = math.log(math.sqrt(math.pi / (4.0 * rate * g)) * special.erfcx(t * math.sqrt(rate * g)))
    got = math.log(survival_integral(Rayleigh(rate), g, t=t, weighted=False))
    assert got == pytest.approx(expected, rel=1e-12)
    quad = math.log(survival_integral(Rayleigh(rate), g, t=t, weighted=False, method="quadrature"))
    assert got == pytest.approx(quad, rel=1e-9)


def test_vectorized_pointwise_shapes_stay_vectorized():
    d = Exponential(2.0)
    x = np.array([0.1, 0.5, 1.0])
    assert d.sf(x).shape == (3,)
    assert d.quantile(np.array([0.2, 0.6])).shape == (2,)
