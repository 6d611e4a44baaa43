"""Distribution families: shapes, inverses, sampling, residual moments."""

import math

import numpy as np
import pytest
from scipy import special, stats

from gwentropy.distributions import (
    Affine,
    Exponential,
    Gamma,
    Pareto,
    Power,
    ProportionalHazards,
    ProportionalReverseHazards,
    Rayleigh,
    SeededSampler,
    Uniform,
    Weibull,
    from_spec,
)
from gwentropy.errors import DivergenceError, GwentropyError

ALL_FAMILIES = [
    Exponential(1.3),
    Pareto(4.5, 0.8),
    Uniform(0.4, 2.1),
    Power(1.7, 2.2),
    Rayleigh(0.7),
    Weibull(1.8),
    Gamma(2.6),
]


# ---------- pointwise shapes ----------


def test_gamma_pdf_frozen_value():
    # e**-4 * 4**4 / Gamma(5) by the density formula
    d = Gamma(5.0)
    assert d.pdf(4.0) == pytest.approx(math.exp(-4.0) * 256.0 / 24.0, rel=1e-12)


def test_exponential_shapes():
    d = Exponential(2.0)
    assert d.sf(0.0) == 1.0
    assert d.cdf(0.0) == 0.0
    assert d.sf(1.5) == pytest.approx(math.exp(-3.0), rel=1e-12)
    assert d.hazard(0.7) == 2.0
    assert d.pdf(-1.0) == 0.0 and d.sf(-1.0) == 1.0


def test_pareto_shapes():
    d = Pareto(3.0, 2.0)
    assert d.support == (2.0, math.inf)
    assert d.sf(1.0) == 1.0 and d.pdf(1.0) == 0.0
    assert d.sf(4.0) == pytest.approx((2.0 / 4.0) ** 3, rel=1e-12)
    assert d.pdf(4.0) == pytest.approx(3.0 * 2.0**3 / 4.0**4, rel=1e-12)


def test_power_and_uniform_shapes():
    p = Power(2.0, 3.0)
    assert p.cdf(1.5) == pytest.approx(0.25, rel=1e-12)
    assert p.cdf(5.0) == 1.0
    u = Uniform(1.0, 3.0)
    assert u.cdf(2.0) == pytest.approx(0.5)
    assert u.sf(2.5) == pytest.approx(0.25)
    assert u.pdf(0.5) == 0.0


def test_rayleigh_and_weibull_shapes():
    r = Rayleigh(0.5)
    assert r.sf(2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
    w = Weibull(2.0)
    assert w.sf(1.5) == pytest.approx(math.exp(-2.25), rel=1e-12)
    assert w.hazard(1.5) == pytest.approx(2.0 * 1.5, rel=1e-12)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__)
def test_quantile_round_trip(d):
    u = np.linspace(0.01, 0.99, 23)
    x = d.quantile(u)
    np.testing.assert_allclose(d.cdf(x), u, rtol=1e-9, atol=1e-12)
    v = np.linspace(0.01, 0.99, 23)
    np.testing.assert_allclose(d.sf(d.isf(v)), v, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__)
def test_pdf_integrates_to_one(d):
    from gwentropy._quad import DEFAULT_QUADRATURE, integrate

    lo, hi = d.support
    top = hi if math.isfinite(hi) else float(d.isf(1e-14))
    mass = integrate(lambda x: float(d.pdf(x)), lo, top, DEFAULT_QUADRATURE)
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_quantile_rejects_boundary():
    d = Exponential(1.0)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(GwentropyError):
            d.quantile(bad)
        with pytest.raises(GwentropyError):
            d.isf(bad)


def test_quantile_rejects_nan():
    for d in (Exponential(1.0), Weibull(2.0), Affine(Exponential(1.0), 2.0)):
        with pytest.raises(GwentropyError):
            d.quantile(math.nan)
        with pytest.raises(GwentropyError):
            d.isf(np.array([0.5, math.nan]))


class _ZeroGenerator:
    """Stands in for a generator whose uniform draws are all exactly 0."""

    def random(self, n):
        return np.zeros(n)


@pytest.mark.parametrize(
    "d",
    [
        Exponential(1.0),
        Weibull(2.0),
        Pareto(3.0, 0.5),
        Uniform(0.4, 2.1),
        Power(1.7, 2.2),
        Affine(Exponential(2.0), 3.0, 1.0),
        ProportionalHazards(Weibull(1.5), 2.0),
        ProportionalReverseHazards(Rayleigh(0.7), 0.5),
    ],
    ids=lambda d: type(d).__name__,
)
def test_zero_draw_maps_to_support_bottom(d):
    x = d.sample_values(4, _ZeroGenerator())
    np.testing.assert_array_equal(x, np.full(4, d.support[0]))


@pytest.mark.parametrize(
    "d",
    [
        Power(1.7, 2.2),
        ProportionalHazards(Pareto(4.5, 0.8), 1.7),
        ProportionalReverseHazards(Power(2.0, 1.0), 0.6),
    ],
    ids=lambda d: type(d).__name__,
)
def test_scalar_inverse_matches_array_bits(d):
    # quadrature calls isf one scalar at a time; a wrapper must hand its base
    # an array, since numpy's scalar pow rounds differently from its array pow
    u = np.linspace(0.01, 0.99, 99)
    assert [float(d.quantile(x)) for x in u] == list(d.quantile(u))
    assert [float(d.isf(x)) for x in u] == list(d.isf(u))


def test_exponential_sample_is_log1p_inversion():
    u = SeededSampler(3, 11).generator().random(50)
    x = Exponential(1.0).sample_values(50, SeededSampler(3, 11).generator())
    np.testing.assert_array_equal(x, -np.log1p(-u))


def test_parameter_validation():
    with pytest.raises(GwentropyError):
        Exponential(0.0)
    with pytest.raises(GwentropyError):
        Pareto(-1.0, 1.0)
    with pytest.raises(GwentropyError):
        Uniform(-0.5, 1.0)
    with pytest.raises(GwentropyError):
        Uniform(2.0, 2.0)
    with pytest.raises(GwentropyError):
        Power(1.0, 0.0)


def test_hazard_reverse_hazard_domains():
    u = Uniform(0.0, 1.0)
    with pytest.raises(GwentropyError):
        u.hazard(1.0)  # survival is zero at the top
    with pytest.raises(GwentropyError):
        u.reverse_hazard(0.0)  # cdf is zero at the bottom
    assert u.hazard(0.25) == pytest.approx(1.0 / 0.75)
    assert u.reverse_hazard(0.25) == pytest.approx(1.0 / 0.25)


# ---------- transformation wrappers ----------


def test_affine_wrapper_matches_substitution():
    base = Exponential(1.5)
    z = Affine(base, 2.0, 3.0)
    assert z.support == (3.0, math.inf)
    x = np.array([3.5, 4.0, 7.0])
    np.testing.assert_allclose(z.sf(x), base.sf((x - 3.0) / 2.0), rtol=1e-12)
    np.testing.assert_allclose(z.pdf(x), base.pdf((x - 3.0) / 2.0) / 2.0, rtol=1e-12)
    u = np.array([0.2, 0.5, 0.9])
    np.testing.assert_allclose(z.quantile(u), 2.0 * np.asarray(base.quantile(u)) + 3.0, rtol=1e-12)


def test_proportional_hazards_wrapper():
    base = Weibull(1.7)
    z = ProportionalHazards(base, 2.3)
    x = np.array([0.3, 1.0, 2.5])
    np.testing.assert_allclose(z.sf(x), np.asarray(base.sf(x)) ** 2.3, rtol=1e-12)
    u = np.array([0.1, 0.6, 0.95])
    np.testing.assert_allclose(z.cdf(z.quantile(u)), u, rtol=1e-9)


def test_proportional_reverse_hazards_wrapper():
    base = Power(1.4, 2.0)
    z = ProportionalReverseHazards(base, 1.9)
    x = np.array([0.3, 1.0, 1.7])
    np.testing.assert_allclose(z.cdf(x), np.asarray(base.cdf(x)) ** 1.9, rtol=1e-12)
    u = np.array([0.1, 0.6, 0.95])
    np.testing.assert_allclose(z.cdf(z.quantile(u)), u, rtol=1e-9)


def test_affine_sampling_is_pushforward():
    rng1 = SeededSampler(11, 5).generator()
    rng2 = SeededSampler(11, 5).generator()
    base = Gamma(2.2)
    z = Affine(base, 3.0, 1.0)
    np.testing.assert_array_equal(
        z.sample_values(100, rng1), 3.0 * base.sample_values(100, rng2) + 1.0
    )


# ---------- sampling ----------


def test_seeded_sampler_reproducible_and_stream_separated():
    a = SeededSampler(42, 0).generator().random(5)
    b = SeededSampler(42, 0).generator().random(5)
    c = SeededSampler(42, 1).generator().random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__)
def test_sampling_ks(d):
    rng = SeededSampler(2024, 7).generator()
    x = d.sample_values(100_000, rng)
    ks = stats.kstest(x, lambda v: np.asarray(d.cdf(v), dtype=float)).statistic
    assert ks < 0.01


@pytest.mark.parametrize("shape", [0.4, 1.0, 2.0, 5.5])
def test_gamma_sampler_moments(shape):
    rng = SeededSampler(99, 3).generator()
    n = 1_000_000
    x = Gamma(shape).sample_values(n, rng)
    se = math.sqrt(shape / n)
    assert abs(x.mean() - shape) < 4.0 * se
    ks = stats.kstest(x[:100_000], lambda v: special.gammainc(shape, v)).statistic
    assert ks < 0.01


# ---------- weighted residual moments ----------


def test_wmrl_at_zero_is_half_second_moment():
    # E[X**2] / 2 for each family, by the known second moments
    assert Exponential(2.0).wmrl(0.0) == pytest.approx(2.0 / 4.0 / 2.0, rel=1e-10)
    assert Rayleigh(0.5).wmrl(0.0) == pytest.approx(1.0 / (2.0 * 0.5), rel=1e-10)
    a = 3.5
    assert Pareto(a, 1.0).wmrl(0.0) == pytest.approx(a / (a - 2.0) / 2.0, rel=1e-10)
    assert Weibull(1.5).wmrl(0.0) == pytest.approx(special.gamma(1.0 + 2.0 / 1.5) / 2.0, rel=1e-9)
    q = 3.2
    assert Gamma(q).wmrl(0.0) == pytest.approx(q * (q + 1.0) / 2.0, rel=1e-9)


@pytest.mark.parametrize(
    "d,t",
    [
        (Exponential(1.4), 0.9),
        (Rayleigh(0.6), 1.1),
        (Uniform(0.4, 2.1), 1.0),
        (Uniform(0.4, 2.1), 0.2),
        (Pareto(4.0, 1.2), 2.0),
        (Pareto(4.0, 1.2), 0.5),
    ],
)
def test_wmrl_closed_matches_quadrature(d, t):
    assert d.wmrl(t) == pytest.approx(d.wmrl(t, method="quadrature"), rel=1e-9)


@pytest.mark.parametrize(
    "d,t",
    [
        (Uniform(0.4, 2.1), 1.3),
        (Uniform(0.4, 2.1), 2.1),
        (Power(1.8, 2.0), 1.2),
        (Power(1.8, 2.0), 2.0),
    ],
)
def test_wmit_closed_matches_quadrature(d, t):
    assert d.wmit(t) == pytest.approx(d.wmit(t, method="quadrature"), rel=1e-9)


def test_wmit_frozen_uniform_value():
    # (t - a) * (2t + a) / 6 by direct integration
    d = Uniform(0.5, 3.0)
    t = 2.0
    assert d.wmit(t) == pytest.approx((t - 0.5) * (2.0 * t + 0.5) / 6.0, rel=1e-12)


@pytest.mark.parametrize(
    "d,t",
    [
        (Exponential(1.2), 0.8),
        (Rayleigh(0.8), 0.9),
        (Uniform(0.2, 1.9), 1.0),
        (Weibull(1.6), 0.7),
        (Gamma(2.4), 1.5),
        (Pareto(3.6, 0.9), 1.4),
    ],
)
def test_wmrl_differential_identity(d, t):
    # m'(t) = hazard(t) * m(t) - t, checked by central differences
    h = 1e-4
    slope = (d.wmrl(t + h) - d.wmrl(t - h)) / (2.0 * h)
    rhs = d.hazard(t) * d.wmrl(t) - t
    assert slope == pytest.approx(rhs, abs=1e-5 * (1.0 + abs(rhs)))


def test_wmrl_divergence_for_heavy_tail():
    with pytest.raises(DivergenceError):
        Pareto(1.8, 1.0).wmrl(0.0)


def test_wmrl_wmit_domain_errors():
    with pytest.raises(GwentropyError):
        Uniform(0.0, 1.0).wmrl(1.0)  # sf = 0 at the top
    with pytest.raises(GwentropyError):
        Uniform(0.5, 1.0).wmit(0.2)  # cdf = 0 below the bottom
    with pytest.raises(GwentropyError):
        Exponential(1.0).wmrl(-0.5)


# ---------- text form ----------


def test_from_spec_round_trips():
    d = from_spec("exp(1.5)")
    assert isinstance(d, Exponential) and d.rate == 1.5
    d = from_spec(" PARETO( 2.5 , 1 ) ")
    assert isinstance(d, Pareto) and (d.shape, d.scale) == (2.5, 1.0)
    d = from_spec("Weibull(2)")
    assert isinstance(d, Weibull) and d.shape == 2.0
    d = from_spec("uniform(0,2)")
    assert isinstance(d, Uniform) and d.support == (0.0, 2.0)


@pytest.mark.parametrize(
    "text",
    ["norm(1)", "exp()", "exp(1,2)", "exp(a)", "exp", "pareto(2.5)", "exp(1))"],
)
def test_from_spec_rejects(text):
    with pytest.raises(GwentropyError):
        from_spec(text)
