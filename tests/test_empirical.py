"""Empirical estimators from order statistics."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gwentropy import (
    CriticalTable,
    EntropyOrder,
    EstimatorVariant,
    Sample,
    TestConfig,
    empirical_gwfe,
    empirical_gwse,
    gwse,
    run_test,
    sample,
    statistic,
)
from gwentropy import empirical
from gwentropy.distributions import Exponential, SeededSampler, Uniform
from gwentropy.empirical import _BLOCK_VALUES, _CHUNK_VALUES, _gap_sums, _head
from gwentropy.errors import DegenerateSampleError, GwentropyError

ORD = EntropyOrder(0.26, 1.25)


# ---------- Sample container ----------


def test_sample_sorts_and_freezes():
    s = Sample([2.0, 0.5, 1.0])
    np.testing.assert_array_equal(s.values, [0.5, 1.0, 2.0])
    assert s.n == 3 and len(s) == 3
    with pytest.raises(ValueError):
        s.values[0] = 9.0  # read-only view


def test_sample_validation():
    with pytest.raises(GwentropyError, match="empty"):
        Sample([])
    with pytest.raises(GwentropyError, match="nonnegative"):
        Sample([1.0, -0.2])
    with pytest.raises(GwentropyError, match="finite"):
        Sample([1.0, math.nan])
    with pytest.raises(GwentropyError, match="finite"):
        Sample([1.0, math.inf])
    with pytest.raises(GwentropyError, match="one-dimensional"):
        Sample(np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]]))
    with pytest.raises(GwentropyError, match="^sample must be one-dimensional$"):
        Sample([[1], [1, 2]])  # ragged: numpy's bare ValueError came out


def test_sample_rejects_complex_input():
    # the imaginary parts were dropped with a ComplexWarning
    with pytest.raises(GwentropyError, match="^sample values must be real numbers$"):
        Sample(np.array([1 + 2j, 3]))


def test_sample_rejects_non_numeric_input():
    # a bare ValueError came out of the float conversion
    with pytest.raises(GwentropyError, match="^sample values must be real numbers$"):
        Sample(["a"])


@pytest.mark.parametrize(
    "values",
    [[True, False], [3, 1, 2], np.array([7, 2**62], dtype=np.uint64), np.float32([2.5, 0.1]), [0.3, 2, 1e-300], 4.0],
    ids=["bool", "int", "uint64", "float32", "mixed", "scalar"],
)
def test_sample_keeps_the_bits_of_accepted_dtypes(values):
    expected = np.sort(np.asarray(values, dtype=float), axis=None)
    np.testing.assert_array_equal(Sample(values).values.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize(
    "values",
    [[-math.inf], [-1.0, math.nan], [math.nan, -1.0], [-1.0, math.inf], [math.inf], [math.nan]],
)
def test_sample_reports_finite_before_nonnegative(values):
    # a negative value beside a non-finite one is reported as non-finite
    with pytest.raises(GwentropyError, match="^sample values must be finite$"):
        Sample(values)


def test_sample_accepts_negative_zero_and_leaves_input_alone():
    s = Sample([1.0, -0.0, 0.5])
    np.testing.assert_array_equal(s.values, [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        s.values[0] = 9.0
    # a float64 array passes through asarray as a view; it must not be sorted in place
    x = np.array([3.0, 1.0, 2.0])
    Sample(x)
    np.testing.assert_array_equal(x, [3.0, 1.0, 2.0])


def test_sample_scaled():
    s = Sample([1.0, 3.0]).scaled(2.0)
    np.testing.assert_array_equal(s.values, [2.0, 6.0])


@pytest.mark.parametrize("factor", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_sample_scaled_rejects_bad_factor(factor):
    with pytest.raises(GwentropyError, match="^scale factor must be finite and positive, got "):
        Sample([1.0]).scaled(factor)


@given(
    values=st.lists(st.floats(0.0, 1e100), min_size=1, max_size=60),
    factor=st.floats(1e-100, 1e100),
)
@example(values=[0.0, 5e-324, 1.0], factor=0.5)
def test_sample_scaled_matches_sorting_the_product(values, factor):
    # scaled skips the sort; the product of sorted values must already be sorted
    s = Sample(values)
    np.testing.assert_array_equal(s.scaled(factor).values.view(np.uint64), Sample(s.values * factor).values.view(np.uint64))


def test_sample_scaled_overflow_raises():
    with pytest.raises(GwentropyError, match="^sample values must be finite$"):
        Sample([2.0, 1e300]).scaled(1e10)


def test_sample_from_distribution_is_seeded():
    a = sample(Exponential(1.0), 50, SeededSampler(7, 0))
    b = sample(Exponential(1.0), 50, SeededSampler(7, 0))
    np.testing.assert_array_equal(a.values, b.values)
    c = sample(Exponential(1.0), np.int64(50), SeededSampler(7, 0))
    np.testing.assert_array_equal(a.values, c.values)


@pytest.mark.parametrize("bad", [0, -2, 1.5, True, np.int64(0)])
def test_sample_size_must_be_a_positive_integer(bad):
    with pytest.raises(GwentropyError, match="sample size must be a positive integer"):
        sample(Exponential(1.0), bad, SeededSampler(7, 0))


# ---------- the gap-sum kernel ----------


def _gap_sums_reference(x, gamma, survival, include_head):
    """The whole-array formula: every weight and term at once, one reduction."""
    n = x.shape[-1]
    i = np.arange(1, n)
    weights = (1.0 - i / n) ** gamma if survival else (i / n) ** gamma
    sq = x * x
    total = ((sq[..., 1:] - sq[..., :-1]) / 2.0 * weights).sum(axis=-1)
    if include_head:
        total = total + x[..., 0] * x[..., 0] / 2.0
    return total


def _sorted_exponential(shape, stream):
    x = SeededSampler(11, stream).generator().exponential(size=shape)
    x.sort(axis=-1)
    return x


_SIDES = [(survival, head) for survival in (True, False) for head in (False, True)]


def _one_side(x, gamma, survival, include_head):
    """One side of the kernel's two-side pass, plus the head as a Sample adds it."""
    total = _gap_sums(x, gamma, (True, False))[0 if survival else 1]
    return total + _head(x) if include_head else total


@pytest.mark.parametrize("gaps", [1, 2, _CHUNK_VALUES - 1, _CHUNK_VALUES, _CHUNK_VALUES + 1, 2 * _CHUNK_VALUES + 1, 10**6 + 2])
def test_gap_sums_match_whole_array_formula(gaps):
    # chunk edges fall on, before and after the last gap; the sums must keep every bit
    x = _sorted_exponential(gaps + 1, gaps)
    for gamma in (ORD.gamma, 2.0):
        for survival, head in _SIDES:
            assert _one_side(x, gamma, survival, head) == _gap_sums_reference(x, gamma, survival, head)


@pytest.mark.parametrize("shape", [(_BLOCK_VALUES // 4, 4), (_BLOCK_VALUES // 20, 20), (_BLOCK_VALUES // 100, 100), (1, _CHUNK_VALUES + 7)])
def test_gap_sums_match_whole_array_formula_row_wise(shape):
    # blocks shaped as the replication engine passes them, and one row wider than a chunk
    x = _sorted_exponential(shape, shape[1])
    for survival, head in _SIDES:
        np.testing.assert_array_equal(_one_side(x, ORD.gamma, survival, head), _gap_sums_reference(x, ORD.gamma, survival, head))


@given(gamma=st.floats(1e-3, 20.0), n=st.integers(2, 3 * _CHUNK_VALUES), survival=st.booleans(), head=st.booleans())
@example(gamma=0.5, n=_CHUNK_VALUES + 1, survival=True, head=False)
@example(gamma=1.0, n=2 * _CHUNK_VALUES + 1, survival=False, head=True)
def test_gap_sums_match_whole_array_formula_drawn(gamma, n, survival, head):
    x = _sorted_exponential(n, 7)
    assert _one_side(x, gamma, survival, head) == _gap_sums_reference(x, gamma, survival, head)


@given(gamma=st.floats(1e-3, 20.0), n=st.integers(2, 3 * _CHUNK_VALUES), rows=st.integers(1, 3))
# the leaf and split edges of the pairwise tree, as n = gaps + 1: one leaf a
# gap short of a chunk, two leaves, three, 3 * _CHUNK_VALUES + 17 gaps (top
# split at 24 584, not a multiple of the chunk), and 10**6 + 2 gaps
@example(gamma=ORD.gamma, n=_CHUNK_VALUES, rows=1)
@example(gamma=ORD.gamma, n=_CHUNK_VALUES + 2, rows=1)
@example(gamma=2.0, n=2 * _CHUNK_VALUES + 2, rows=3)
@example(gamma=ORD.gamma, n=3 * _CHUNK_VALUES + 18, rows=2)
@example(gamma=ORD.gamma, n=10**6 + 3, rows=1)
# the replication engine's blocks
@example(gamma=ORD.gamma, n=4, rows=_BLOCK_VALUES // 4)
@example(gamma=ORD.gamma, n=20, rows=_BLOCK_VALUES // 20)
@example(gamma=ORD.gamma, n=100, rows=_BLOCK_VALUES // 100)
def test_one_pass_keeps_the_bits_of_each_side(gamma, n, rows):
    # one sample, and rows of samples as the replication engine passes them
    for x in (_sorted_exponential(n, 9), _sorted_exponential((rows, n), 9)):
        surv, fail = _gap_sums(x, gamma, (True, False))
        np.testing.assert_array_equal(surv, _gap_sums_reference(x, gamma, True, False), strict=True)
        np.testing.assert_array_equal(fail, _gap_sums_reference(x, gamma, False, False), strict=True)


@pytest.mark.parametrize(
    "estimate",
    [lambda s: empirical_gwse(s, ORD), lambda s: empirical_gwfe(s, ORD), lambda s: statistic(s, ORD)],
    ids=["empirical_gwse", "empirical_gwfe", "statistic"],
)
def test_estimator_peak_memory_does_not_grow_with_n(traced_peak, estimate):
    # the kernel holds a few chunk-sized buffers and no array of the n - 1
    # terms: about 0.5 MiB at any n.  A Sample keeps its gap sums, so the
    # traced call is a fresh sample's first
    n = 10**6
    x = SeededSampler(5, 0).generator().exponential(size=n)
    estimate(Sample(x))  # a first call outside the trace: lazy imports and caches
    s = Sample(x)
    peak = traced_peak(lambda: estimate(s))
    assert peak <= 1.0, f"traced peak {peak:.3f} MiB against a bound of 1 MiB"


# ---------- one-leaf weight cache ----------

_POOL = 3  # a few values of n and gamma per example, so that keys repeat and share parts


@given(
    ns=st.lists(st.integers(2, _CHUNK_VALUES + 1), min_size=_POOL, max_size=_POOL),
    gammas=st.lists(st.floats(1e-3, 20.0), min_size=_POOL, max_size=_POOL),
    steps=st.lists(st.tuples(st.integers(0, _POOL - 1), st.integers(0, _POOL - 1), st.booleans()), min_size=1, max_size=12),
)
# keys that differ in n alone, in gamma alone and in the side alone; the last
# holds more keys than the cache, then reads the first again
@example(ns=[20, 30, 2], gammas=[ORD.gamma, 2.0, 0.5], steps=[(0, 0, True), (1, 0, True), (0, 0, True)])
@example(ns=[20, 30, 2], gammas=[ORD.gamma, 2.0, 0.5], steps=[(0, 0, False), (0, 1, False), (0, 0, False)])
@example(ns=[_CHUNK_VALUES + 1, 30, 2], gammas=[ORD.gamma, 2.0, 0.5], steps=[(0, 0, True), (0, 0, False), (0, 0, True)])
@example(
    ns=[5000, 30, 2],
    gammas=[ORD.gamma, 2.0, 0.5],
    steps=[(i, j, side) for i in range(3) for j in range(2) for side in (True, False)] + [(0, 0, True)],
)
def test_weight_cache_keys_on_n_gamma_and_side(ns, gammas, steps):
    empirical._leaf_weights.cache_clear()
    for i, j, survival in steps:
        x = _sorted_exponential((2, ns[i]), i)
        np.testing.assert_array_equal(
            _gap_sums(x, gammas[j], (survival,))[0], _gap_sums_reference(x, gammas[j], survival, False), strict=True
        )
        assert empirical._leaf_weights.cache_info().currsize <= empirical._WEIGHT_ENTRIES


def test_cached_weights_are_read_only():
    w = empirical._leaf_weights(20, ORD.gamma, True)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0


def _weight_builds(monkeypatch) -> list:
    """Record every weight build from here on: its n, its sides and weak
    references to the arrays it returned."""
    builds, builder = [], empirical._weights

    def recorded(lo, m, n, gamma, sides):
        out = builder(lo, m, n, gamma, sides)
        builds.append((n, sides, [weakref.ref(w) for w in out]))
        return out

    monkeypatch.setattr(empirical, "_weights", recorded)
    return builds


def test_one_size_forms_its_weights_once_per_side(monkeypatch):
    empirical._leaf_weights.cache_clear()
    builds = _weight_builds(monkeypatch)
    gen = SeededSampler(8, 0).generator()
    for _ in range(200):
        s = Sample(gen.exponential(size=5000))
        empirical_gwse(s, ORD), empirical_gwfe(s, ORD), statistic(s, ORD)
    assert [(n, sides) for n, sides, _ in builds] == [(5000, (True,)), (5000, (False,))]
    # a sample one gap past a leaf forms its weights per leaf and keeps none
    empirical_gwse(Sample(gen.exponential(size=_CHUNK_VALUES + 2)), ORD)
    assert empirical._leaf_weights.cache_info().currsize == 2
    assert {n for n, _, _ in builds[2:]} == {_CHUNK_VALUES + 2}


def test_weight_cache_stays_within_its_entries_and_bytes(monkeypatch):
    # the property's examples, then twice as many keys of a full leaf as the
    # cache holds; the arrays still alive are the cache's, since the kernel
    # returns only totals
    builds = _weight_builds(monkeypatch)
    test_weight_cache_keys_on_n_gamma_and_side()
    for n in range(_CHUNK_VALUES + 1, _CHUNK_VALUES + 1 - empirical._WEIGHT_ENTRIES, -1):
        _gap_sums(_sorted_exponential(n, 0), ORD.gamma, (True, False))
    gc.collect()
    refs = [r for _, _, refs in builds for r in refs]
    kept = [w for w in (r() for r in refs) if w is not None]
    assert len(refs) > empirical._WEIGHT_ENTRIES
    assert len(kept) == empirical._leaf_weights.cache_info().currsize <= empirical._WEIGHT_ENTRIES == 8
    assert sum(w.nbytes for w in kept) <= 2**20


# ---------- kept gap sums ----------


def _kernel_runs(monkeypatch) -> list:
    """Record every call to the estimator kernel from here on."""
    runs, kernel = [], empirical._gap_sums

    def counted(x, *key):
        runs.append(key)
        return kernel(x, *key)

    monkeypatch.setattr(empirical, "_gap_sums", counted)
    return runs


def test_estimate_then_test_runs_the_kernel_once_per_sample_and_gamma(monkeypatch):
    runs = _kernel_runs(monkeypatch)
    s = Sample(SeededSampler(2, 0).generator().exponential(size=50))
    stats = {}
    for variant in EstimatorVariant:
        surv, fail, stats[variant] = empirical_gwse(s, ORD, variant), empirical_gwfe(s, ORD, variant), statistic(s, ORD, variant)
        assert stats[variant].estimate == surv and fail != surv
    # the first request forms both sides in one pass; the rest read the kept sums
    assert runs == [(ORD.gamma, (True, False))]
    table = CriticalTable(ORD, (0.05,), {50: (0.5,)}, 100, 0, EstimatorVariant.GAPS_ONLY)
    assert statistic(s, ORD) == stats[EstimatorVariant.GAPS_ONLY]
    assert run_test(s, TestConfig(order=ORD), table).statistic == stats[EstimatorVariant.GAPS_ONLY]
    assert len(runs) == 1


def test_kept_sums_are_keyed_by_gamma():
    s = Sample([0.5, 1.0, 3.0])
    for variant in EstimatorVariant:
        empirical_gwse(s, ORD, variant)
        empirical_gwfe(s, ORD, variant)
    # one pair of sums (survival, failure) per gamma serves both variants;
    # FULL_STEP adds the head on read
    assert list(s._sums) == [ORD.gamma]
    assert s._gap_sum(ORD.gamma, True, True) == s._sums[ORD.gamma][0] + 0.5 * 0.5 / 2.0
    other = EntropyOrder(0.5, 1.25)
    empirical_gwse(s, other)
    assert list(s._sums) == [ORD.gamma, other.gamma]


def test_scaled_sample_starts_with_no_kept_sums():
    s = Sample([0.5, 1.0, 3.0])
    empirical_gwse(s, ORD)
    t = s.scaled(2.0)
    assert s._sums and t._sums == {}
    assert empirical_gwse(t, ORD) == empirical_gwse(Sample(t.values), ORD)


@given(
    beta=st.floats(1.0, 4.0),
    share=st.floats(0.01, 0.99),
    n=st.integers(2, 300),
    variant=st.sampled_from(EstimatorVariant),
)
def test_kept_sums_give_a_fresh_samples_values(beta, share, n, variant):
    order = EntropyOrder(beta - 1.0 + share, beta)
    x = SeededSampler(n, 3).generator().exponential(size=n)
    estimates = [
        lambda s: empirical_gwse(s, order, variant),
        lambda s: empirical_gwfe(s, order, variant),
        lambda s: statistic(s, order, variant),
    ]
    s = Sample(x)
    for estimate in estimates + estimates:  # the second round reads the kept sums
        assert estimate(s) == estimate(Sample(x))


@pytest.mark.parametrize("values", [[0.0, 1.0, 1e200], [1e200, 2e200]], ids=["one-overflows", "all-overflow"])
@pytest.mark.parametrize(
    "estimate",
    [lambda s: empirical_gwse(s, ORD), lambda s: empirical_gwfe(s, ORD), lambda s: statistic(s, ORD)],
    ids=["empirical_gwse", "empirical_gwfe", "statistic"],
)
def test_overflowing_squares_raise_a_typed_error(values, estimate):
    # an inf estimate would give T = 0, outside (0, 1]; no warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSampleError, match="squares overflow"):
            estimate(Sample(values))


def test_underflowing_squares_name_both_causes():
    # the sample has spread, but its squares round to zero
    with pytest.raises(DegenerateSampleError, match="no spread or its squares underflow"):
        empirical_gwse(Sample([1e-200, 2e-200]), ORD)


# ---------- survival-side estimator ----------


def test_two_point_sample_frozen():
    # gaps {0, 2}: single gap of length 2 at survival level 1/2, weighted by
    # the midpoint, so the inner sum is 2 * (1/2)**gamma * (0 + 2) / 2
    s = Sample([0.0, 2.0])
    g = ORD.gamma
    expected = math.log(2.0 * 0.5**g) / ORD.delta
    assert empirical_gwse(s, ORD) == pytest.approx(expected, rel=1e-12)


def test_three_point_sample_frozen():
    # hand-computed: gaps (1,2] and (2,4] at levels 2/3 and 1/3
    s = Sample([1.0, 2.0, 4.0])
    g = ORD.gamma
    inner = (2.0 / 3.0) ** g * (2.0**2 - 1.0**2) / 2.0 + (1.0 / 3.0) ** g * (
        4.0**2 - 2.0**2
    ) / 2.0
    assert empirical_gwse(s, ORD) == pytest.approx(math.log(inner) / ORD.delta, rel=1e-12)


def test_full_step_adds_leading_half_square():
    # the two variants differ by exactly x_(1)**2 / 2 inside the log
    s = Sample([1.0, 2.0, 4.0])
    gaps = math.exp(ORD.delta * empirical_gwse(s, ORD, EstimatorVariant.GAPS_ONLY))
    full = math.exp(ORD.delta * empirical_gwse(s, ORD, EstimatorVariant.FULL_STEP))
    assert full - gaps == pytest.approx(1.0**2 / 2.0, rel=1e-12)


def test_variants_coincide_when_sample_starts_at_zero():
    s = Sample([0.0, 1.0, 3.0])
    a = empirical_gwse(s, ORD, EstimatorVariant.GAPS_ONLY)
    b = empirical_gwse(s, ORD, EstimatorVariant.FULL_STEP)
    assert a == pytest.approx(b, rel=1e-14)


def test_ties_are_harmless():
    s = Sample([1.0, 1.0, 1.0, 2.0])
    assert math.isfinite(empirical_gwse(s, ORD))


def test_degenerate_sample_raises():
    with pytest.raises(DegenerateSampleError):
        empirical_gwse(Sample([1.5, 1.5, 1.5]), ORD)  # no spread at all


def test_minimum_size():
    with pytest.raises(GwentropyError):
        empirical_gwse(Sample([1.0]), ORD)


def test_scale_equivariance():
    rng = SeededSampler(3, 1).generator()
    s = Sample(Exponential(1.0).sample_values(40, rng))
    for c in (0.2, 3.0, 17.5):
        lhs = empirical_gwse(s.scaled(c), ORD)
        rhs = empirical_gwse(s, ORD) + 2.0 * math.log(c) / ORD.delta
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_estimator_tracks_truth_loosely():
    # characterization, not a convergence theorem: at n = 5000 the mean
    # absolute error of the gap estimator for a unit-rate exponential sits
    # near 0.078 (200 samples); truncating the integral at the largest
    # observation gives a mean error of only about -0.054, and sampling
    # spread (SD ~0.075) makes up the rest
    o = ORD
    truth = float(gwse(Exponential(1.0), o))
    errs = []
    for rep in range(20):
        rng = SeededSampler(515, rep).generator()
        s = Sample(Exponential(1.0).sample_values(5000, rng))
        errs.append(abs(empirical_gwse(s, o) - truth))
    mean_err = float(np.mean(errs))
    assert 0.05 < mean_err < 0.11


def test_estimator_bias_shrinks_with_n():
    o = ORD
    truth = float(gwse(Exponential(1.0), o))

    def mean_abs_err(n):
        errs = []
        for rep in range(10):
            rng = SeededSampler(99, 1000 + rep).generator()
            s = Sample(Exponential(1.0).sample_values(n, rng))
            errs.append(abs(empirical_gwse(s, o) - truth))
        return float(np.mean(errs))

    assert mean_abs_err(40_000) < mean_abs_err(400)


# ---------- failure-side estimator ----------


def test_failure_estimator_frozen():
    # weights climb with the empirical cdf: ((i+1)/n)**gamma on gap i
    s = Sample([1.0, 2.0, 4.0])
    g = ORD.gamma
    inner = (1.0 / 3.0) ** g * (2.0**2 - 1.0**2) / 2.0 + (2.0 / 3.0) ** g * (
        4.0**2 - 2.0**2
    ) / 2.0
    assert empirical_gwfe(s, ORD) == pytest.approx(math.log(inner) / ORD.delta, rel=1e-12)


def test_failure_estimator_tracks_uniform():
    from gwentropy import gwfe

    o = ORD
    truth = float(gwfe(Uniform(0.0, 1.0), o))
    rng = SeededSampler(21, 4).generator()
    s = Sample(Uniform(0.0, 1.0).sample_values(20_000, rng))
    assert abs(empirical_gwfe(s, o) - truth) < 0.05


def test_failure_estimator_variants_coincide():
    s = Sample([1.0, 2.0, 4.0])
    a = empirical_gwfe(s, ORD, EstimatorVariant.GAPS_ONLY)
    b = empirical_gwfe(s, ORD, EstimatorVariant.FULL_STEP)
    assert a == b
