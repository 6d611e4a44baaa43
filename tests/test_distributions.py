"""Distribution families: shapes, inverses, sampling, residual moments."""

import ctypes
import hashlib
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import special, stats

from gwentropy import EntropyOrder, _random
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
    SeededSampler,
    Uniform,
    Weibull,
    from_spec,
)
from gwentropy._random import _KI, _NOR_R, _WordBuffer, _philox_words
from gwentropy.empirical import _BLOCK_VALUES, sample
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


@pytest.mark.parametrize("d", [Exponential(1.0), Weibull(1.0), Gamma(1.0)], ids=["exponential", "weibull", "gamma"])
@pytest.mark.parametrize("t,rate", [(-1.0, 0.0), (0.7, 1.0)])
def test_unit_exponential_hazard_is_one_rate_in_three_families(d, t, rate):
    # Weibull(1) and Gamma(1) are Exponential(1): rate 1 on the support, 0 below it
    assert d.hazard(t) == rate


def test_unit_exponential_reads_its_right_limit_at_zero():
    # at the support bottom the density and the hazard are their right limits,
    # rate 1 in all three, so gdwse's slope there is gamma * 1 / delta in each
    order = EntropyOrder(0.26, 1.25)
    families = [Exponential(1.0), Weibull(1.0), Gamma(1.0)]
    assert [(d.pdf(0.0), d.hazard(0.0)) for d in families] == [(1.0, 1.0)] * 3
    assert [gdwse_derivative(d, order, 0.0) for d in families] == [order.gamma / order.delta] * 3
    # the same limits for other shapes: inf below 1, 0 above
    others = (Weibull(0.5), Gamma(0.5), Weibull(2.0), Gamma(2.0))
    assert [float(d.pdf(0.0)) for d in others] == [math.inf, math.inf, 0.0, 0.0]


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


_HAZARD_FAMILIES = {
    "exp": Exponential(1.3),
    "rayleigh": Rayleigh(0.7),
    "weibull0.6": Weibull(0.6),
    "weibull1": Weibull(1.0),
    "weibull1.8": Weibull(1.8),
}
_OTHER_FAMILIES = {"pareto": Pareto(4.5, 0.8), "uniform": Uniform(0.4, 2.1), "power": Power(1.7, 2.2), "gamma": Gamma(2.6)}
_PINNED = {
    **_HAZARD_FAMILIES,
    **{f"ph-{k}": ProportionalHazards(d, 0.4) for k, d in {**_HAZARD_FAMILIES, **_OTHER_FAMILIES}.items()},
    **{f"affine-{k}": Affine(d, 1.5, 0.5) for k, d in _HAZARD_FAMILIES.items()},
    **{f"prh-{k}": ProportionalReverseHazards(d, 2.5) for k, d in _HAZARD_FAMILIES.items()},
}
# sha256 of every pointwise function's bits on the grids below, array and
# scalar calls, with zeros and NaNs normalized (first 16 hex digits)
_PINNED_DIGESTS = {
    "exp": "79cadfabc3eb80dc",
    "rayleigh": "bb3f0404e58c545d",
    "weibull0.6": "26b2655c9dbfa8c7",
    "weibull1": "b9af1601fb9df374",
    "weibull1.8": "449f63770db82088",
    "ph-exp": "03a8d4d96e6436f6",
    "ph-rayleigh": "32ddd5ae04273d76",
    "ph-weibull0.6": "8ae4d7d199297731",
    "ph-weibull1": "5c94aab8f74c60e2",
    "ph-weibull1.8": "f66abeb10edc7722",
    "ph-pareto": "4bae6b2dc7f978f8",
    "ph-uniform": "b842c6eb73fa64cc",
    "ph-power": "3eb97bdb29eb0547",
    "ph-gamma": "52526470e67d2bdf",
    "affine-exp": "5fb490b6b626a160",
    "affine-rayleigh": "b8a8a5915815aa8c",
    "affine-weibull0.6": "255aebf3297f6093",
    "affine-weibull1": "18f57566800a2aa7",
    "affine-weibull1.8": "abf1b42438c24616",
    "prh-exp": "72bb21c69d92539a",
    "prh-rayleigh": "5d18e0b20069a66c",
    "prh-weibull0.6": "78ab12b4289bd269",
    "prh-weibull1": "a9dafb48f5e5c187",
    "prh-weibull1.8": "b877947f25c03019",
}
_X = np.array([-2.0, -1e-300, -0.0, 0.0, 1e-300, 1e-8, 0.3, 0.8, 1.0, 1.7, 2.1, 2.2, 5.0, 40.0, 1e200, np.inf, np.nan])
_U = np.array([1e-300, 1e-16, 1e-8, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-8, 1.0 - 1e-16])
_LOG_V = np.array([-0.0, -1e-300, -1e-16, -1e-3, -0.5, -1.0, -5.0, -50.0, -700.0, -750.0, -1e4])


def _bits(f, grid) -> bytes:
    """f on the grid as one array and element by element: the values with
    -0.0 read as 0.0 and every NaN as one NaN, or the error's name."""
    out = []
    for call in (lambda: f(grid), lambda: [np.asarray(f(float(v)), dtype=float) for v in grid]):
        try:
            y = np.asarray(call(), dtype=float)
        except Exception as exc:  # a raise is part of the pinned behaviour
            out.append(type(exc).__name__.encode())
            continue
        out.append(np.where(np.isnan(y), np.nan, y + 0.0).tobytes())
    return b"|".join(out)


@pytest.mark.parametrize("name", list(_PINNED))
def test_pointwise_functions_keep_their_bits(name):
    d = _PINNED[name]
    h = hashlib.sha256()
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for f, grid in [
            *[(getattr(d, f), _X) for f in ("pdf", "cdf", "sf", "_log_sf", "_hazard")],
            *[(getattr(d, f), _U) for f in ("_quantile", "_isf", "quantile", "isf")],
            (d._isf_log, _LOG_V),
        ]:
            h.update(_bits(f, grid) + b"#")
    assert h.hexdigest()[:16] == _PINNED_DIGESTS.get(name)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__)
def test_quantile_round_trip(d):
    u = np.linspace(0.01, 0.99, 23)
    x = d.quantile(u)
    np.testing.assert_allclose(d.cdf(x), u, rtol=1e-9, atol=1e-12)
    v = np.linspace(0.01, 0.99, 23)
    np.testing.assert_allclose(d.sf(d.isf(v)), v, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__)
def test_pdf_integrates_to_one(d):
    from gwentropy._quad import integrate

    lo, hi = d.support
    top = hi if math.isfinite(hi) else float(d.isf(1e-14))
    mass = integrate(d.pdf, lo, top)
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
    # a scalar call (the quad fallback makes them) must give the array call's
    # bits, so a wrapper hands its base an array: numpy's scalar pow rounds
    # differently from its array pow
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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "make",
    [
        pytest.param(Exponential, id="exponential"),
        pytest.param(Rayleigh, id="rayleigh"),
        pytest.param(Weibull, id="weibull"),
        pytest.param(Gamma, id="gamma"),
        pytest.param(lambda p: Pareto(p, 1.0), id="pareto-shape"),
        pytest.param(lambda p: Pareto(3.0, p), id="pareto-scale"),
        pytest.param(lambda p: Uniform(p, 2.0), id="uniform-lower"),
        pytest.param(lambda p: Uniform(0.0, p), id="uniform-upper"),
        pytest.param(lambda p: Power(p, 1.0), id="power-shape"),
        pytest.param(lambda p: Power(2.0, p), id="power-upper"),
        pytest.param(lambda p: Affine(Exponential(1.0), p), id="affine-scale"),
        pytest.param(lambda p: Affine(Exponential(1.0), 1.0, p), id="affine-shift"),
        pytest.param(lambda p: ProportionalHazards(Exponential(1.0), p), id="ph"),
        pytest.param(lambda p: ProportionalReverseHazards(Exponential(1.0), p), id="prh"),
    ],
)
def test_every_family_parameter_must_be_finite(make, bad):
    with pytest.raises(GwentropyError, match="must be finite"):
        make(bad)


def test_hazard_reverse_hazard_domains():
    u = Uniform(0.0, 1.0)
    with pytest.raises(GwentropyError):
        u.hazard(1.0)  # survival is zero at the top
    with pytest.raises(GwentropyError):
        u.reverse_hazard(0.0)  # cdf is zero at the bottom
    assert u.hazard(0.25) == pytest.approx(1.0 / 0.75)
    assert u.reverse_hazard(0.25) == pytest.approx(1.0 / 0.25)


@pytest.mark.parametrize(
    "d",
    [pytest.param(d, id=type(d).__name__) for d in ALL_FAMILIES]
    + [
        pytest.param(ProportionalHazards(Weibull(1.8), 0.7), id="ph-weibull"),
        pytest.param(ProportionalHazards(Exponential(1.3), 2.0), id="ph-exponential"),
        pytest.param(ProportionalReverseHazards(Pareto(4.5, 0.8), 1.5), id="prh-pareto"),
        pytest.param(ProportionalReverseHazards(Uniform(0.4, 2.1), 0.6), id="prh-uniform"),
        pytest.param(Affine(Gamma(2.6), 1.5, 0.3), id="affine-gamma"),
        pytest.param(Affine(Power(1.7, 2.2), 0.5), id="affine-power"),
    ],
)
def test_hazard_and_reverse_hazard_reject_nan(d):
    # pdf, cdf and sf give NaN at NaN; the scalar rates raise for every
    # family and wrapper instead
    with pytest.raises(GwentropyError, match="^hazard undefined at t=nan$"):
        d.hazard(math.nan)
    with pytest.raises(GwentropyError, match="^reverse hazard undefined at t=nan$"):
        d.reverse_hazard(math.nan)


@pytest.mark.parametrize(
    "d",
    [pytest.param(d, id=type(d).__name__) for d in ALL_FAMILIES]
    + [
        pytest.param(wrap(d), id=f"{name}-{type(d).__name__}")
        for d in ALL_FAMILIES
        for name, wrap in [
            ("ph", lambda d: ProportionalHazards(d, 0.4)),
            ("prh", lambda d: ProportionalReverseHazards(d, 2.5)),
            ("affine", lambda d: Affine(d, 1.5, 0.5)),
        ]
    ],
)
def test_pointwise_functions_are_nan_at_nan(d):
    # a mask that NaN fails must not send NaN to the support bottom (sf = 1,
    # cdf = 0), outside it (pdf = 0) or to a constant rate (Exponential's _hazard)
    for f in (d.pdf, d.cdf, d.sf, d._hazard):
        assert math.isnan(f(math.nan))
        np.testing.assert_array_equal(np.isnan(f(np.array([0.5, math.nan, 1.0]))), [False, True, False])


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


@pytest.mark.parametrize("theta", [0.01, 0.1, 0.5, 3.0, 50.0])
def test_proportional_inverses_hold_both_tails(theta):
    # PH(Exponential(1), theta) is Exponential(theta), and the PRH survival
    # inverse is the base quantile at (1 - v)**(1/theta), in both tails,
    # including where (1 - u)**(1/theta) rounds to 1 or underflows
    z = ProportionalHazards(Exponential(1.0), theta)
    u = np.array([1e-300, 1e-12, 0.3, 0.5, 0.99, 1.0 - 2.0**-53])
    np.testing.assert_allclose(z.quantile(u), Exponential(theta).quantile(u), rtol=1e-14)
    np.testing.assert_allclose(z.isf(u), Exponential(theta).isf(u), rtol=1e-14)
    log_c = np.log1p(-u) / theta  # log base cdf at PRH.isf(u)
    with np.errstate(divide="ignore"):
        want = np.where(log_c < -1.0, -np.log1p(-np.exp(log_c)), -np.log(-np.expm1(log_c)))
    prh = ProportionalReverseHazards(Exponential(1.0), theta)
    np.testing.assert_allclose(prh.isf(u), want, rtol=1e-13)


def test_proportional_hazards_tail_beyond_base_underflow():
    # sf = base.sf**theta and pdf stay exact where base.sf underflows
    x = np.array([10.0, 800.0, 5000.0])
    z = ProportionalHazards(Exponential(1.0), 0.01)
    np.testing.assert_allclose(z.sf(x), np.exp(-0.01 * x), rtol=1e-14)
    np.testing.assert_allclose(z.pdf(x), 0.01 * np.exp(-0.01 * x), rtol=1e-14)


def test_proportional_hazards_log_survival_overflow_warns_nothing():
    # theta times the base's log survival overflows to -inf, the right value,
    # with no RuntimeWarning, as in the hazard families' own _log_sf
    z = ProportionalHazards(Exponential(1.0), 2.0)
    assert z._log_sf(1e308) == -math.inf
    assert z.sf(1e308) == 0.0 and z.cdf(1e308) == 1.0


def test_gamma_log_tail_beyond_underflow():
    # Gamma(2) has sf = (1 + x) exp(-x); its log tail and inverse hold past
    # the underflow of sf, through the continued fraction and Newton steps
    d = Gamma(2.0)
    x = np.array([0.5, 10.0, 680.0, 800.0, 5000.0])
    np.testing.assert_allclose(d._log_sf(x), np.log1p(x) - x, rtol=1e-14)
    # exp(log pdf - log sf) keeps about |x| ulps
    np.testing.assert_allclose(d._hazard(x), x / (1.0 + x), rtol=1e-12)
    np.testing.assert_allclose(d._isf_log(np.log1p(x) - x), x, rtol=1e-13)


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


@given(
    seed=st.integers(0, 2**64 - 1),
    streams=st.lists(st.integers(1 << 56, 2**64 - 1), min_size=1, max_size=4),
    n=st.integers(1, 41),
)
@example(seed=2**64 - 1, streams=[2**64 - 1], n=1)
@example(seed=0, streams=[(1 << 56) | (7 << 32)], n=7)
def test_philox_block_matches_numpy_philox(seed, streams, n):
    # numpy's own Philox is the oracle: row i must be stream i's first n draws
    u = _random.uniforms(seed, np.array(streams, dtype=np.uint64), n)
    assert u.shape == (len(streams), n)
    for row, stream in zip(u, streams):
        np.testing.assert_array_equal(row, SeededSampler(seed, stream).generator().random(n))


@given(
    seed=st.integers(0, 2**64 - 1),
    rows=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(2, 40)), min_size=1, max_size=4),
    blocks=st.integers(1, 6),
)
@example(seed=2**64 - 1, rows=[(2**64 - 1, 2)], blocks=1)
@example(seed=2**64 - 1, rows=[(2**64 - 1, 7), (0, 3)], blocks=3)
def test_philox_words_from_per_row_counters_match_numpy_philox(seed, rows, blocks):
    # _WordBuffer.at's path past its block: row i starts at its own counter
    # first[i] > 1, the words numpy's Philox gives after first[i] - 1 blocks
    streams, first = (np.array(col, dtype=np.uint64) for col in zip(*rows))
    words = _philox_words(seed, streams, first, blocks)
    assert words.shape == (len(rows), 4 * blocks)
    for row, (stream, start) in zip(words, rows):
        bits = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
        bits.advance(start - 1)
        np.testing.assert_array_equal(row, bits.random_raw(4 * blocks))


@pytest.mark.parametrize("n", [4, 5])
def test_philox_words_at_the_engine_block_size_match_numpy_philox(n):
    # one engine block's call, _BLOCK_VALUES // n rows of ceil(n / 4) counters
    # (8 192 and 13 106 counters), checked at both ends and in between
    rows, blocks = _BLOCK_VALUES // n, -(-n // 4)
    seed, streams = 2**64 - 59, np.uint64((1 << 56) | (n << 32)) | np.arange(rows, dtype=np.uint64)
    words = _philox_words(seed, streams, 1, blocks)
    assert rows * blocks >= 8192 and words.shape == (rows, 4 * blocks)
    for i in (0, 1, rows // 3, rows // 2, rows - 2, rows - 1):
        bits = np.random.Philox(key=np.array([seed, streams[i]], dtype=np.uint64))
        np.testing.assert_array_equal(words[i], bits.random_raw(4 * blocks))


def _normals(words: _WordBuffer, rows, pos, k) -> tuple[np.ndarray, np.ndarray]:
    """words.normals into new arrays: the normals and each row's next word."""
    size = int(k.sum())
    return words.normals(rows, pos, k, np.empty(size), (np.empty(size, dtype=np.int64), np.empty(size, dtype=np.uint64)))


def _words_drawn(rng: np.random.Generator) -> int:
    """64-bit words a generator's Philox has handed out since it was made."""
    state = rng.bit_generator.state
    return 4 * int(state["state"]["counter"][0]) + int(state["buffer_pos"]) - 4


@given(
    seed=st.integers(0, 2**64 - 1),
    streams=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    n=st.integers(1, 700),
)
@example(seed=0, streams=[(2 << 56) | (5 << 32)], n=1)
def test_ziggurat_normals_match_numpy(seed, streams, n):
    # numpy's Generator.standard_normal is the oracle, for the values and for
    # the words they use; from a block of four words, every row that needs
    # more reads the rest from their own Philox counters
    streams = np.array(streams, dtype=np.uint64)
    words = _WordBuffer(seed, streams, 4)
    z, pos = _normals(words, np.arange(streams.size), np.zeros(streams.size, dtype=np.int64), np.full(streams.size, n))
    for row, end, stream in zip(z.reshape(-1, n), pos.tolist(), streams.tolist()):
        rng = SeededSampler(seed, stream).generator()
        np.testing.assert_array_equal(row, rng.standard_normal(n))
        assert end == _words_drawn(rng)


_U64 = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
_U32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_F64 = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class _BitGen(ctypes.Structure):
    # numpy's bitgen_t, the function table a Generator draws through
    _fields_ = [("state", ctypes.c_void_p), ("next_uint64", _U64), ("next_uint32", _U32),
                ("next_double", _F64), ("next_raw", _U64)]


_new_capsule = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p)(
    ("PyCapsule_New", ctypes.pythonapi)
)


class _WordSource:
    """A bit generator that hands numpy's Generator the given words, in order."""

    def __init__(self, words):
        self.words, self.used = [int(w) for w in words], 0

        def word(_):
            self.used += 1
            return self.words[self.used - 1]

        self._table = _BitGen(None, _U64(word), _U32(lambda s: word(s) >> 32),
                              _F64(lambda s: (word(s) >> 11) * 2.0**-53), _U64(word))
        self.capsule = _new_capsule(ctypes.addressof(self._table), b"BitGenerator", None)
        self.lock = threading.Lock()


def test_word_source_replays_philox():
    stream_words = _philox_words(3, np.array([5], dtype=np.uint64), 1, 60)[0]
    source = _WordSource(stream_words)
    np.testing.assert_array_equal(
        np.random.Generator(source).standard_normal(200), SeededSampler(3, 5).generator().standard_normal(200)
    )


def test_ziggurat_layer_thresholds_match_numpy(monkeypatch):
    # each layer's threshold exactly: a first word with rabs = ki - 1 (fast
    # path) and rabs = ki (slow path) of both signs, on numpy's own sampler;
    # the filler words are fast-path draws whose double, 1/16, ends any tail
    filler = (1 << 60) | 128
    first = [
        (rabs << 9) | (sign << 8) | idx
        for idx, ki in enumerate(_KI.tolist())
        for rabs in (ki - 1, ki) if rabs >= 0
        for sign in (0, 1)
    ]
    words = np.array([[w] + [filler] * 15 for w in first], dtype=np.uint64)
    monkeypatch.setattr(_random, "_philox_words", lambda seed, streams, first_block, blocks: words)
    rows = np.arange(len(first))
    z, pos = _normals(_WordBuffer(0, np.zeros(rows.size, dtype=np.uint64), 16), rows, 0 * rows, np.full(rows.size, 2))
    for row, end, stream_words in zip(z.reshape(-1, 2), pos.tolist(), words):
        source = _WordSource(stream_words)
        np.testing.assert_array_equal(row, np.random.Generator(source).standard_normal(2))
        assert end == source.used


def test_ziggurat_slow_words_read_as_doubles_start_no_normal(monkeypatch):
    # a slow word's wedge double, and each double of a tail's pairs, that is
    # itself a slow-path word is read as a double only: the next normal
    # starts after it, and the row ends where numpy's sampler ends
    filler, top = (1 << 60) | 128, 2**64 - 1  # a fast word; a slow word whose double is 1 - 2**-53
    wedge, tail, zero = (int(_KI[100]) << 9) | 100, int(_KI[0]) << 9, 1  # zero: layer 1, always slow, double 0
    starts = [
        [wedge, zero],  # the wedge's double is a slow word, and accepts
        [wedge, top],  # and rejects
        [wedge, tail],  # a tail word
        [tail, top, zero, zero, filler],  # a pair of slow words rejected, then one accepted
        [filler, tail, top, tail, wedge, zero, filler, wedge, top],
    ]
    words = np.array([w + [filler] * (16 - len(w)) for w in starts], dtype=np.uint64)
    monkeypatch.setattr(_random, "_philox_words", lambda seed, streams, first_block, blocks: words)
    rows = np.arange(len(starts))
    z, pos = _normals(_WordBuffer(0, np.zeros(rows.size, dtype=np.uint64), 16), rows, 0 * rows, np.full(rows.size, 3))
    for row, end, stream_words in zip(z.reshape(-1, 3), pos.tolist(), words):
        source = _WordSource(stream_words)
        np.testing.assert_array_equal(row, np.random.Generator(source).standard_normal(3))
        assert end == source.used


def test_ziggurat_slow_paths_are_taken(monkeypatch):
    # a fixed case in which the wedge both accepts and rejects and the tail
    # beyond R, of both signs, rejects a pair of doubles at least once
    seen = []
    slow_normals = _WordBuffer._slow_normals

    def spy(self, rows, pos):
        made, x, used = slow_normals(self, rows, pos)
        seen.extend(zip((self.at(rows, pos) & np.uint64(0xFF)).tolist(), made.tolist(), used.tolist()))
        return made, x, used

    monkeypatch.setattr(_WordBuffer, "_slow_normals", spy)
    streams = np.arange(300, dtype=np.uint64)
    z, _ = _normals(_WordBuffer(7, streams, 4), np.arange(300), np.zeros(300, dtype=np.int64), np.full(300, 500))
    expected = [SeededSampler(7, s).generator().standard_normal(500) for s in range(300)]
    np.testing.assert_array_equal(z, np.concatenate(expected))
    wedge = {made for idx, made, _ in seen if idx}
    tail = [used for idx, _, used in seen if not idx]
    assert wedge == {True, False}
    assert tail and max(tail) > 3
    beyond = z[np.abs(z) > _NOR_R]
    assert beyond.min() < 0.0 < beyond.max()


def _counting_slow_normals(monkeypatch) -> list:
    """The row counts of each _WordBuffer._slow_normals call from here on."""
    calls = []
    slow_normals = _WordBuffer._slow_normals

    def spy(self, rows, pos):
        calls.append(rows.size)
        return slow_normals(self, rows, pos)

    monkeypatch.setattr(_WordBuffer, "_slow_normals", spy)
    return calls


@pytest.mark.parametrize("n", [50, 100])
def test_ziggurat_slow_words_of_a_block_take_few_passes(monkeypatch, n):
    # every slow word of a block goes down the slow path in one call, and the
    # short rows' outputs in a few more; one slow word per row per pass took
    # 7 calls at n = 50 and 8 at n = 100 on this Gamma(5) engine block
    calls = _counting_slow_normals(monkeypatch)
    rows = _BLOCK_VALUES // n
    streams = _random.stream_words(2, n, np.arange(rows))
    words = _WordBuffer(7, streams, 2 * n + int(2 * n * _random._GAMMA_SPARE) + 4)  # as gammas sizes it
    z, _ = _normals(words, np.arange(rows), np.zeros(rows, dtype=np.int64), np.full(rows, n))
    assert 1 <= len(calls) <= 4
    expected = [SeededSampler(7, s).generator().standard_normal(n) for s in streams.tolist()]
    np.testing.assert_array_equal(z, np.concatenate(expected))


def test_one_row_gamma_draw_takes_few_slow_passes(monkeypatch):
    # a one-row draw of 10**5 values made 1 545 calls, one per slow word
    calls = _counting_slow_normals(monkeypatch)
    x = _random.gammas(5.0, 7, np.array([3], dtype=np.uint64), 10**5)
    assert len(calls) <= 50
    np.testing.assert_array_equal(x[0], _random.gamma_row(5.0, 10**5, SeededSampler(7, 3).generator()))


def _gamma_rejection(shape: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Gamma(shape, 1) sampler via the squeeze-free Marsaglia-Tsang method.

    Vectorized rejection in rounds; the draw order depends only on the
    acceptance pattern, so output is a pure function of the stream state.
    """
    q = shape
    boost = None
    if q < 1.0:
        # Gamma(q) = Gamma(q + 1) * U ** (1/q); consume the boost block first
        boost = rng.random(n) ** (1.0 / q)
        q = q + 1.0
    d = q - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n, dtype=float)
    todo = np.arange(n)
    while todo.size:
        z = rng.standard_normal(todo.size)
        u = rng.random(todo.size)
        v = (1.0 + c * z) ** 3
        pos = v > 0.0
        vs = np.where(pos, v, 1.0)
        accept = pos & (np.log(u) < 0.5 * z * z + d * (1.0 - vs + np.log(vs)))
        out[todo[accept]] = d * vs[accept]
        todo = todo[~accept]
    if boost is not None:
        out *= boost
    return out


def _assert_same_position(rng: np.random.Generator, reference: np.random.Generator) -> None:
    a, b = rng.bit_generator.state, reference.bit_generator.state
    np.testing.assert_array_equal(a["state"]["counter"], b["state"]["counter"])
    assert a["buffer_pos"] == b["buffer_pos"]


@pytest.mark.parametrize("shape", [0.3, 1.0, 5.0, 50.0])
@pytest.mark.parametrize("n,count,spare", [(3, 400, None), (2000, 3, 0.0), (100, 400, None)])
def test_gamma_streams_match_sample_values(monkeypatch, shape, n, count, spare):
    # _gamma_rejection above, the rounds written out on one Generator, is the
    # reference for both word sources of _random._gamma_rounds: the
    # engine's rows, and Gamma.sample_values, which must also leave its
    # Generator where the reference leaves it, fresh or already used.  With no
    # spare share a row's word block holds its boost block, its first round
    # and a few words more, which 2000 values overrun; 400 rows of 100 values
    # run as one set of rounds over 40 000 values, more than an engine block
    calls = []

    def counted(*args):
        calls.append(args)
        return _philox_words(*args)

    monkeypatch.setattr(_random, "_philox_words", counted)
    if spare is not None:
        monkeypatch.setattr(_random, "_GAMMA_SPARE", spare)
    seed = 2**64 - 59
    streams = np.uint64((2 << 56) | (n << 32)) | np.arange(count, dtype=np.uint64)
    x = Gamma(shape)._sample_streams(seed, streams, n)
    for row, stream in zip(x, streams.tolist()):
        reference, rng = SeededSampler(seed, stream).generator(), SeededSampler(seed, stream).generator()
        expected = _gamma_rejection(shape, n, reference)
        np.testing.assert_array_equal(row, expected)
        np.testing.assert_array_equal(Gamma(shape).sample_values(n, rng), expected)
        _assert_same_position(rng, reference)
        # the same two Generators, used: a second draw from where the first stopped
        np.testing.assert_array_equal(Gamma(shape).sample_values(n, rng), _gamma_rejection(shape, n, reference))
        _assert_same_position(rng, reference)
    if spare == 0.0:
        assert len(calls) > 1


_SEEDED_PATH_CASES = ALL_FAMILIES + [
    Affine(Gamma(0.7), 2.0, 0.5),
    ProportionalHazards(Weibull(1.5), 2.0),
    ProportionalReverseHazards(Rayleigh(0.7), 0.5),
]


@pytest.mark.parametrize("n", [1, 20, 5000])
@pytest.mark.parametrize("d", _SEEDED_PATH_CASES, ids=lambda d: type(d).__name__)
def test_sample_is_the_engine_row_sorted(d, n):
    # sample() draws through sample_values on the sampler's Generator, the
    # engine through _sample_streams: the same values on the same key
    seed, stream = 2**64 - 59, (5 << 56) | (n << 32) | 17
    values = sample(d, n, SeededSampler(seed, stream)).values
    np.testing.assert_array_equal(values, np.sort(d._sample_streams(seed, np.array([stream], dtype=np.uint64), n)[0]))
    np.testing.assert_array_equal(values, np.sort(d.sample_values(n, SeededSampler(seed, stream).generator())))


@pytest.mark.parametrize("seed,stream", [(7, -1), (2**70 + 1, 2**64 + 9), (-3, 5)])
def test_sample_reduces_the_key_modulo_2_64(seed, stream):
    # seed and stream outside [0, 2**64) draw what the engine draws on the reduced key
    streams = np.array([stream % 2**64], dtype=np.uint64)
    for d in (Exponential(1.0), Gamma(5.0)):
        expected = np.sort(d._sample_streams(seed % 2**64, streams, 5)[0])
        np.testing.assert_array_equal(sample(d, 5, SeededSampler(seed, stream)).values, expected)


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
        (Uniform(0.4, 2.1), 2.6),  # above the top: exact (t^2 - hi^2)/2 tail
        (Power(1.8, 2.0), 2.7),
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
