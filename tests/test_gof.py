"""Exponentiality test: statistic, critical tables, power machinery."""

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gwentropy import (
    DEFAULT_LEVELS,
    DEFAULT_ORDER,
    CriticalTable,
    EntropyOrder,
    EstimatorVariant,
    Sample,
    TestConfig,
    critical_values,
    empirical_gwse,
    power_study,
    run_test,
    statistic,
)
from gwentropy.distributions import (
    Affine,
    Distribution,
    Exponential,
    Gamma,
    Pareto,
    ProportionalHazards,
    ProportionalReverseHazards,
    SeededSampler,
    Uniform,
    Weibull,
)
from gwentropy._random import B_LIMIT, N_LIMIT, stream_words
from gwentropy.empirical import _BLOCK_VALUES
from gwentropy.errors import DegenerateSampleError, GwentropyError, MissingTableEntryError

ORD = EntropyOrder(0.26, 1.25)


# ---------- the statistic ----------


def test_statistic_components_frozen():
    s = Sample([0.5, 1.0, 1.5, 3.0])
    o = ORD
    st = statistic(s)
    assert st.lambda_hat == pytest.approx(1.0 / 1.5, rel=1e-12)
    est = empirical_gwse(s, o)
    plug = -2.0 * (math.log(o.gamma) - math.log(1.5)) / o.delta
    assert st.estimate == pytest.approx(est, rel=1e-12)
    assert st.plug_in == pytest.approx(plug, rel=1e-12)
    assert st.distance == pytest.approx(abs(est - plug), rel=1e-12)
    assert st.t_value == pytest.approx(math.exp(-abs(est - plug)), rel=1e-12)


def test_t_value_range():
    rng = SeededSampler(5, 9).generator()
    for rep in range(25):
        s = Sample(Exponential(2.0).sample_values(12, rng))
        t = statistic(s).t_value
        assert 0.0 < t <= 1.0


def test_t_value_scale_invariant():
    rng = SeededSampler(6, 2).generator()
    s = Sample(Weibull(1.5).sample_values(30, rng))
    base = statistic(s).t_value
    for c in (0.01, 0.7, 40.0):
        assert statistic(s.scaled(c)).t_value == pytest.approx(base, abs=1e-12)


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.floats(0.3, 5.0),
    n=st.integers(2, 200),
    c=st.floats(1e-3, 1e3),
)
def test_t_value_scale_invariant_property(seed, shape, n, c):
    # both terms shift by 2 * log(c) / delta; only the rounding of c * x and
    # of the sums is left, a few ulp of T
    s = Sample(Weibull(shape).sample_values(n, SeededSampler(seed, 3).generator()))
    assert abs(statistic(s.scaled(c)).t_value - statistic(s).t_value) <= 1e-13


def test_statistic_custom_order_and_variant():
    s = Sample([0.2, 0.9, 1.7, 2.8])
    o = EntropyOrder(0.8, 1.1)
    st = statistic(s, order=o, variant=EstimatorVariant.FULL_STEP)
    est = empirical_gwse(s, o, EstimatorVariant.FULL_STEP)
    assert st.estimate == pytest.approx(est, rel=1e-12)


# ---------- configuration ----------


def test_config_validation():
    with pytest.raises(GwentropyError):
        TestConfig(level=0.0)
    with pytest.raises(GwentropyError):
        TestConfig(level=1.0)
    with pytest.raises(GwentropyError):
        TestConfig(replications=0)


def test_config_defaults():
    cfg = TestConfig()
    assert cfg.order.alpha == 0.26 and cfg.order.beta == 1.25
    assert cfg.level == 0.05
    assert cfg.replications == 10_000
    assert cfg.variant is EstimatorVariant.GAPS_ONLY


# ---------- critical tables ----------


def small_table(**kw):
    cfg = TestConfig(replications=kw.pop("replications", 2000), seed=kw.pop("seed", 77))
    return critical_values([5, 10, 20], cfg=cfg, **kw)


def test_critical_values_reproducible():
    a = small_table()
    b = small_table()
    assert a.rows == b.rows


def test_critical_values_worker_invariant():
    a = small_table()
    c = small_table(workers=2)
    d = small_table(workers=8)
    assert a.rows == c.rows == d.rows


def test_critical_values_monotone_in_level_and_n():
    t = small_table()
    for n in t.n_values:
        v1, v5, v10 = (t.value(n, lv) for lv in (0.01, 0.05, 0.10))
        assert v1 < v5 < v10
    assert t.monotone_violations() == []


def test_table_lookup_and_missing_entry():
    t = small_table()
    assert 0.0 < t.value(10, 0.05) < 1.0
    with pytest.raises(MissingTableEntryError):
        t.value(11, 0.05)
    with pytest.raises(MissingTableEntryError):
        t.value(10, 0.03)


def test_table_json_round_trip(tmp_path):
    t = small_table()
    payload = t.to_json()
    parsed = json.loads(payload)
    assert parsed["kind"] == "critical-table"
    back = CriticalTable.from_json(payload)
    assert back == t
    p = tmp_path / "table.json"
    p.write_text(payload)
    assert CriticalTable.from_json(p.read_text()) == t


def test_table_csv_has_row_per_cell():
    t = small_table()
    lines = t.to_csv().strip().splitlines()
    assert lines[0] == "n,level,value"
    assert len(lines) == 1 + 3 * len(t.n_values)


def test_critical_values_input_validation():
    with pytest.raises(GwentropyError):
        critical_values([1], cfg=TestConfig(replications=10))
    with pytest.raises(GwentropyError):
        critical_values([], cfg=TestConfig(replications=10))


def _no_draw(*args):
    raise AssertionError("drew past the stream layout's limits")


@pytest.mark.parametrize("n", [2**24, 2**24 + 5, 2**32 + 5])
def test_sizes_past_the_stream_layout_raise_before_any_draw(monkeypatch, n):
    # from n = 2**24 on the bits of n reach the tag, and 2**24 + 5 drew the
    # n = 5 streams; from 2**32 on the stream word overflowed
    monkeypatch.setattr(Distribution, "_sample_streams", _no_draw)
    cfg = TestConfig(replications=1)
    with pytest.raises(GwentropyError, match="stream layout"):
        critical_values([5, n], cfg=cfg)
    with pytest.raises(GwentropyError, match="stream layout"):
        power_study(Weibull(2.0), [5, n], cfg=cfg)


def test_replications_past_the_stream_layout_raise():
    assert TestConfig(replications=B_LIMIT).replications == 2**32
    with pytest.raises(GwentropyError, match="stream layout"):
        TestConfig(replications=B_LIMIT + 1)


def test_stream_layout_is_one_to_one_inside_its_limits():
    # the largest n and r fill their bits and stop below the next tag
    assert N_LIMIT == 2**24
    assert int(stream_words(1, N_LIMIT - 1, np.array([B_LIMIT - 1]))[0]) == (2 << 56) - 1
    assert int(stream_words(2, 0, np.array([0]))[0]) == 2 << 56


def test_null_law_at_n2_is_exact():
    # At n = 2 under GAPS_ONLY, T depends only on W = (x2 - x1) / (x2 + x1),
    # which is Uniform(0, 1) under the null since 2 x1 and x2 - x1 are iid
    # Exp(1).  The distance is |log(c W)| / delta with c = 2**(1 - gamma) *
    # gamma**2 < 1 at the default order, so T = (c W)**(1/delta), and
    # P(T <= v) = v**delta / c.  Each critical value's exact cdf lies within 3
    # binomial standard errors of its rank's share (a nominal false alarm of
    # 0.27% each), and c**-1 T**delta over the whole row passes a KS test
    # against Uniform(0, 1) at 0.1%: about 0.9% in all, at this fixed seed
    order, b = DEFAULT_ORDER, 200_000
    cfg = TestConfig(replications=b, seed=7)
    c = 2.0 ** (1.0 - order.gamma) * order.gamma**2
    assert c < 1.0
    table = critical_values([2], cfg=cfg)
    for level, v in zip(table.levels, table.rows[2]):
        share = math.ceil(level * b) / b
        assert abs(v**order.delta / c - share) <= 3.0 * math.sqrt(share * (1.0 - share) / b)
    from gwentropy.gof import _replicate

    _, _, dist, _ = _replicate(Exponential(1.0), 1, cfg, 2, 0, b)
    assert stats.kstest(np.exp(-dist) ** order.delta / c, "uniform").pvalue > 1e-3


def test_quantile_index_matches_order_statistic():
    # the critical value must be the ceil(level * B)-th smallest simulated T
    cfg = TestConfig(replications=200, seed=3)
    t = critical_values([6], levels=(0.05,), cfg=cfg)
    from gwentropy.gof import _replicate, _t_rows

    # the null is the Exponential(1) alternative on tag 1; every replication's
    # T by statistic, one stream at a time, and from the engine's kept sums
    draws = [
        statistic(Sample(Exponential(1.0).sample_values(6, SeededSampler(3, (1 << 56) | (6 << 32) | r).generator())))
        .t_value for r in range(200)
    ]
    totals, means, _, _ = _replicate(Exponential(1.0), 1, cfg, 6, 0, 200)
    assert _t_rows(totals, means, cfg.order, np.arange(200)) == draws
    assert t.value(6, 0.05) == sorted(draws)[math.ceil(0.05 * 200) - 1]


def test_critical_rows_and_power_count_pinned():
    # exact values guard the engine's bits across restructuring; no tolerance
    cfg = TestConfig(replications=2000, seed=77)
    t = critical_values([5, 20], cfg=cfg)
    assert t.rows == {
        5: (0.11938163980555819, 0.17730577060410344, 0.20738175776149295),
        20: (0.2864815830175768, 0.3412480245490921, 0.3741074328957723),
    }
    res = power_study(Weibull(2.0), [10], cfg=cfg)
    assert [r.rejections for r in res] == [783, 1430, 1652]


@pytest.mark.parametrize(
    "alt,n,rejections",
    [
        (Gamma(5.0), 10, [1278, 1765, 1877]),
        (Gamma(5.0), 50, [1998, 2000, 2000]),
        (Gamma(0.5), 10, [1, 10, 23]),
        (Affine(Gamma(5.0), 2.0, 0.5), 10, [1420, 1834, 1924]),
    ],
    ids=["gamma5-n10", "gamma5-n50", "gamma0.5-n10", "affine-gamma5-n10"],
)
def test_gamma_power_counts_pinned(alt, n, rejections):
    # exact counts of the rejection sampler's path, recorded when Gamma was
    # still sampled one stream at a time; no tolerance
    res = power_study(alt, [n], cfg=TestConfig(replications=2000, seed=77))
    assert [r.rejections for r in res] == rejections


def test_replication_block_survives_zero_draw(monkeypatch):
    # a uniform draw may be exactly 0; it must map to the support bottom
    from gwentropy import _random, gof

    blocks = []

    def zero_first(seed, streams, n):
        blocks.append(np.tile(np.linspace(0.0, 0.9, n), (streams.size, 1)))
        return blocks[-1]

    monkeypatch.setattr(_random, "uniforms", zero_first)
    totals, means, dist, scale = gof._replicate(Exponential(1.0), 1, TestConfig(), 8, 0, 3)
    assert len(blocks) == 1  # the engine drew its uniforms through the patched block
    assert np.all(np.isfinite(dist)) and math.isfinite(scale)
    t = gof._t_rows(totals, means, TestConfig().order, np.arange(3))
    assert all(0.0 < v <= 1.0 for v in t)


@pytest.mark.parametrize("constant_rows", [[0, 1, 2], [1]])
def test_replication_block_with_zero_gap_sum_raises(monkeypatch, constant_rows):
    # a constant row has no spread: the whole block fails, as a lone sample
    # fails in statistic, rather than giving that row a NaN or 1.0
    from gwentropy import _random, gof

    def uniforms(seed, streams, n):
        u = np.tile(np.linspace(0.1, 0.9, n), (streams.size, 1))
        u[constant_rows] = 0.5
        return u

    monkeypatch.setattr(_random, "uniforms", uniforms)
    with pytest.raises(DegenerateSampleError):
        gof._replicate(Exponential(1.0), 1, TestConfig(), 8, 0, 3)


@pytest.mark.parametrize("n", [4, 20, 100])
@pytest.mark.parametrize("order", [ORD, EntropyOrder(1.23, 1.25)], ids=["default", "delta0.02"])
@pytest.mark.parametrize(
    "d", [Exponential(1.0), Pareto(0.3, 1.0), Gamma(0.3), Uniform(1.0, 1.0 + 1e-6)], ids=lambda d: type(d).__name__
)
def test_engine_distance_is_far_inside_the_band(d, order, n):
    # the engine's np.log distance against the exact one (math.log on Python
    # floats) on every replication of a few blocks: at most 2**-50 of the
    # row's own scale, 1/1024 of the band (worst seen 1.6e-16); only the
    # replications near a cut are finished exactly, so this gap must stay
    # inside it
    from gwentropy.gof import _BAND, _replicate, _t_parts

    cfg = TestConfig(order=order, seed=11)
    b = 3 * (_BLOCK_VALUES // n) // 2
    totals, means, dist, scale = _replicate(d, 2, cfg, n, 0, b)
    parts = np.array([_t_parts(t, m, order.gamma, order.delta)[:2] for t, m in zip(totals.tolist(), means.tolist())])
    row_scale = 1.0 + np.abs(parts).sum(axis=1) + 4.0 * abs(math.log(order.gamma)) / order.delta
    assert row_scale.max() <= scale * (1.0 + 2.0**-50)  # the engine's, from its np.log terms
    assert np.all(np.abs(dist - np.abs(parts[:, 0] - parts[:, 1])) <= 2.0**-50 * row_scale)
    assert 2.0**-50 == _BAND / 1024


class _Tied(Distribution):
    """Its base drawn on streams with the two lowest bits cleared: replications tie in fours."""

    def __init__(self, base):
        self.base = base

    def _sample_streams(self, seed, streams, n):
        return self.base._sample_streams(seed, streams & ~np.uint64(3), n)


def _jittered(jitter: int):
    """gof._distances moved off by up to the error the band allows for, from
    a generator seeded with jitter (0: left as it is)."""
    from gwentropy import gof

    rng, exact = np.random.default_rng(jitter), gof._distances

    def moved(totals, means, order):
        dist, scale = exact(totals, means, order)
        dist += rng.uniform(-1.0, 1.0, dist.size) * (gof._BAND / 3 * scale)
        np.maximum(dist, 0.0, out=dist)
        return dist, scale

    return mock.patch.object(gof, "_distances", moved if jitter else exact)


@settings(max_examples=40)
@given(
    delta=st.one_of(st.just(0.02), st.floats(0.02, 0.98)),
    beta=st.floats(1.0, 2.0),
    variant=st.sampled_from(list(EstimatorVariant)),
    b=st.integers(1, 300),
    n=st.integers(2, 40),
    # heavy tails, and near-constant rows, whose distances reach past 700 at
    # delta = 0.02, where T nears the subnormals and reaches 0
    alt=st.sampled_from(
        [Exponential(1.0), Pareto(0.3, 1.0), Pareto(2.0, 1.0), Gamma(0.3), Weibull(0.4), Uniform(1.0, 1.0 + 1e-6)]
    ),
    tied=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
    picks=st.lists(st.integers(0, 299), min_size=1, max_size=6),
    jitter=st.integers(0, 3),
)
def test_cut_matches_sorting_every_exact_t(delta, beta, variant, b, n, alt, tied, seed, picks, jitter):
    # ranks and counts from the distances and the band against the route that
    # takes statistic's T of every replication's sample and sorts them; with
    # jitter, every engine distance is moved by up to the band's error margin
    from gwentropy._random import stream_words
    from gwentropy.gof import _counts_below, _ranked

    cfg = TestConfig(order=EntropyOrder(beta - delta, beta), replications=b, seed=seed, variant=variant)
    d = _Tied(alt) if tied else alt
    rows = d._sample_streams(cfg.seed, stream_words(2, n, np.arange(b)), n)
    t = np.array([statistic(Sample(row), cfg.order, cfg.variant).t_value for row in rows])
    at = [float(t[i % b]) for i in picks]
    cvs = [float(v) for x in at for v in (x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf))]
    cvs += [0.0, -0.5, 1.0, 1.5, math.inf, math.nan]
    with _jittered(jitter):
        assert _ranked(d, 2, cfg, n, range(1, b + 1)) == sorted(t.tolist())
        assert _counts_below(d, 2, cfg, n, cvs) == [int((t < cv).sum()) for cv in cvs]


def test_band_finishes_every_row_past_the_normal_t():
    # beyond distance 700, exp(-distance) nears the subnormals, where rows a
    # band apart can round to the same T: a cut there leaves no row surely
    # beyond it and finishes every row from just below 700 up exactly
    from gwentropy.gof import _BAND, _NORMAL_T_DISTANCE, _band

    dist = np.array([0.5, 690.0, 699.9, 700.0, 720.0, 745.5, 800.0, math.inf])
    assert _NORMAL_T_DISTANCE == 700.0
    beyond, near = _band(dist, 1.0, 720.0)
    assert beyond == 0 and near.tolist() == [3, 4, 5, 6, 7]
    # below it, the band is _BAND of the scale and the cut either side
    beyond, near = _band(dist, 1.0, 690.0)
    assert beyond == 6 and near.tolist() == [1]
    beyond, near = _band(dist + [0, _BAND * 691.0, 0, 0, 0, 0, 0, 0], 1.0, 690.0)
    assert beyond == 6 and near.tolist() == [1]
    beyond, near = _band(dist + [0, _BAND * 692.0, 0, 0, 0, 0, 0, 0], 1.0, 690.0)
    assert beyond == 7 and near.tolist() == []


ENGINE_CASES = [
    pytest.param(Exponential(1.0), id="exponential"),
    pytest.param(Weibull(2.0), id="weibull2"),
    pytest.param(ProportionalHazards(Pareto(3.0, 1.0), 2.0), id="ph-pareto"),
    pytest.param(Affine(Exponential(1.0), 2.0, 0.5), id="affine-exponential"),
    pytest.param(ProportionalReverseHazards(Uniform(0.0, 2.0), 3.0), id="prh-uniform"),
    # rejection sampling: ziggurat normals and uniforms from the same array Philox
    pytest.param(Gamma(5.0), id="gamma5"),
    pytest.param(Gamma(0.5), id="gamma0.5"),
    pytest.param(Gamma(1.0), id="gamma1"),
    pytest.param(Gamma(50.0), id="gamma50"),
    pytest.param(Affine(Gamma(5.0), 2.0, 0.5), id="affine-gamma5"),
]


@pytest.mark.parametrize("variant", list(EstimatorVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("d", ENGINE_CASES)
@pytest.mark.parametrize("n,start,stop", [(20, 0, 30), (3000, 3, 15), (_BLOCK_VALUES // 5, 3, 15)])
def test_replication_engine_matches_one_stream_at_a_time(d, variant, n, start, stop):
    # [3, 15) spans two blocks at n = 3000 (_BLOCK_VALUES // 3000 = 10
    # replications a block) and three at n = _BLOCK_VALUES // 5 (5 a block),
    # the last one short either way; Gamma runs each block's rows, 10 or 5 or
    # fewer, as one set of rejection rounds
    # the engine's distances are the statistic's to within the band, and the
    # exact T from a replication's kept gap sum and mean is the statistic's,
    # bit for bit
    from gwentropy.gof import _BAND, _replicate, _t_rows

    cfg = TestConfig(seed=2**64 - 59, variant=variant)
    totals, means, dist, scale = _replicate(d, 2, cfg, n, start, stop)
    expected = [
        statistic(Sample(d.sample_values(n, SeededSampler(cfg.seed, (2 << 56) | (n << 32) | r).generator())),
                  cfg.order, cfg.variant)
        for r in range(start, stop)
    ]
    assert np.all(np.abs(dist - [st.distance for st in expected]) <= _BAND / 3 * scale)
    assert _t_rows(totals, means, cfg.order, np.arange(stop - start)) == [st.t_value for st in expected]


def test_replication_engine_forms_the_survival_side_only(monkeypatch):
    from gwentropy import gof

    sides, kernel = [], gof._gap_sums

    def counted(x, gamma, wanted):
        sides.append(wanted)
        return kernel(x, gamma, wanted)

    monkeypatch.setattr(gof, "_gap_sums", counted)
    for variant in EstimatorVariant:
        cfg = TestConfig(replications=200, seed=4, variant=variant)
        table = critical_values([5, 20], cfg=cfg)
        power_study(Weibull(2.0), [20], cfg=cfg, table=table)
    assert sides and set(sides) == {(True,)}


@pytest.mark.parametrize(
    "d,n,seed,bound_mb",
    [pytest.param(Exponential(1.0), n, 3, 1.5, id=f"Exponential-{n}-1.5") for n in (4, 5, 20, 100)]
    + [
        pytest.param(Gamma(5.0), n, seed, 3.0, id=f"Gamma-{n}-3.0" + (f"-seed{seed}" if seed != 3 else ""))
        for n in (5, 100)
        for seed in (3, 4, 6)
    ],
)
def test_replication_engine_peak_memory_is_a_few_blocks(traced_peak, d, n, seed, bound_mb):
    # Philox rounds in place, and Gamma's rejection rounds over a whole block
    # in a workspace of four arrays of its values, keep one call's traced peak
    # near a few blocks of 8-byte values: 0.9-1.4 MiB, and for Gamma 2.93 MiB
    # (n = 5) and 1.95 MiB (n = 100) at seeds 3, 4 and 6, whose rounds with a
    # temporary for each step took 4.6 MB over a whole block.  Gamma's word
    # block is never grown: a buffer that grew by a copy of the whole block
    # read 3.5 MiB at seeds 4 and 6
    from gwentropy.gof import _replicate

    cfg = TestConfig(seed=seed)
    stop = 2 * (_BLOCK_VALUES // n)
    _replicate(d, 2, cfg, n, 0, stop)  # first call outside the trace: lazy imports and caches
    peak = traced_peak(lambda: _replicate(d, 2, cfg, n, 0, stop))
    assert peak <= bound_mb, f"traced peak {peak:.3f} MiB against a bound of {bound_mb} MiB"


@pytest.mark.parametrize("row", ["table", "power"])
def test_engine_memory_per_replication_is_bounded(traced_peak, row):
    # a row keeps each replication's gap sum and mean (16 bytes) and its
    # distance (8); beside them _distances holds its two log terms, and a
    # table row one negated copy that it partitions in place: at most 40
    # bytes per replication at B = 200 000, plus about a block's working set
    b = 200_000
    table = CriticalTable(ORD, DEFAULT_LEVELS, {5: (0.15, 0.2, 0.25)}, b, 5, EstimatorVariant.GAPS_ONLY)
    if row == "table":
        run = lambda cfg: critical_values([4], cfg=cfg)  # noqa: E731
    else:
        run = lambda cfg: power_study(Weibull(2.0), [5], cfg=cfg, table=table)  # noqa: E731
    run(TestConfig(replications=100, seed=5))  # lazy imports and caches outside the trace
    peak, bound = traced_peak(lambda: run(TestConfig(replications=b, seed=5))), (40 * b + 2**20) / 2**20
    assert peak <= bound, f"traced peak {peak:.3f} MiB against a bound of {bound:.3f} MiB"


def _minor_faults(script: str) -> int:
    """The count a script prints: minor page faults it takes in a fresh
    interpreter, without MALLOC_* or GLIBC_TUNABLES settings, which raise
    glibc's mmap and trim thresholds and would hide the faults."""
    pytest.importorskip("resource")
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the fault count follows glibc's malloc")
    import gwentropy

    src = str(Path(gwentropy.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**env, "PYTHONPATH": src}
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


_FAULTS_SCRIPT = """
import resource
from gwentropy import TestConfig
from gwentropy.distributions import Exponential, Gamma
from gwentropy.gof import _replicate

d, cfg, sizes = {dist}, TestConfig(replications=10000, seed=1), {sizes}
_replicate(d, {tag}, cfg, sizes[0], 0, 100)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for n in sizes:
    _replicate(d, {tag}, cfg, n, 0, 10000)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_replication_engine_keeps_its_heap_pages():
    # _philox_words keeps its eight round buffers in one allocation, which
    # raises glibc's dynamic mmap and trim thresholds above an engine block's
    # working set.  With the buffers split, glibc trims the heap under the
    # blocks and faults it back in: the table rows n = 4..30 at B = 10000 took
    # 26 500-38 500 minor faults against 630-1 610 with one allocation.  The
    # count depends on the heap's history, so it is taken in a fresh
    # interpreter; the rows run from n = 4 up, since the small-n rows' first
    # allocations are what raise the thresholds, and that order is part of
    # what is checked
    script = _FAULTS_SCRIPT.format(dist="Exponential(1.0)", tag=1, sizes="range(4, 31)")
    assert _minor_faults(script) < 6000  # about 23 MB of 4 KiB pages


def test_gamma_replication_keeps_its_heap_pages():
    # Gamma's rejection rounds keep their per-value arrays in one workspace
    # and run over a whole engine block, a working set that stays under the
    # trim threshold the Philox's round buffers set.  With the rounds' old
    # temporaries, in batches of 16 384 values, glibc trimmed the heap after
    # each batch: the power-alt sizes n = 5..100 at B = 10000 took 5 000-52 000
    # minor faults, run to run, against 1 100-1 400 now, most of them the first
    # block's first touch of its pages
    script = _FAULTS_SCRIPT.format(dist="Gamma(5.0)", tag=2, sizes=(5, 10, 15, 20, 50, 100))
    assert _minor_faults(script) < 5000  # about 20 MB of 4 KiB pages


# ---------- running the test ----------


def test_run_test_accepts_exponential_sample():
    rng = SeededSampler(12, 0).generator()
    s = Sample(Exponential(1.4).sample_values(25, rng))
    cfg = TestConfig(replications=2000, seed=5)
    out = run_test(s, cfg=cfg)
    assert out.n == 25
    assert out.table_simulated
    assert not out.reject  # a well-behaved exponential sample should pass


def test_run_test_rejects_far_alternative():
    rng = SeededSampler(13, 0).generator()
    s = Sample(Weibull(4.0).sample_values(40, rng))
    out = run_test(s, cfg=TestConfig(replications=2000, seed=5))
    assert out.reject


def test_run_test_uses_supplied_table():
    rng = SeededSampler(12, 0).generator()
    s = Sample(Exponential(1.0).sample_values(10, rng))
    cfg = TestConfig(replications=500, seed=9)
    table = critical_values([10], cfg=cfg)
    out = run_test(s, cfg=cfg, table=table)
    assert not out.table_simulated
    assert out.critical_value == table.value(10, cfg.level)
    assert out.reject == (out.statistic.t_value < out.critical_value)


def test_table_from_another_order_or_variant_raises():
    # replications and seed may differ; order and variant may not
    cfg = TestConfig(replications=200, seed=9)
    table = critical_values([10], cfg=cfg)
    s = Sample(Exponential(1.0).sample_values(10, SeededSampler(12, 0).generator()))
    assert not run_test(s, cfg=TestConfig(replications=50, seed=1), table=table).table_simulated
    for other in (TestConfig(order=EntropyOrder(1.6, 2.5)), TestConfig(variant=EstimatorVariant.FULL_STEP)):
        with pytest.raises(GwentropyError, match="critical table simulated at order"):
            run_test(s, cfg=other, table=table)
        with pytest.raises(GwentropyError, match="critical table simulated at order"):
            power_study(Weibull(2.0), [10], cfg=other, table=table)


def test_run_test_missing_entry_strict():
    rng = SeededSampler(12, 0).generator()
    s = Sample(Exponential(1.0).sample_values(12, rng))
    cfg = TestConfig(replications=500, seed=9)
    table = critical_values([10], cfg=cfg)
    with pytest.raises(MissingTableEntryError):
        run_test(s, cfg=cfg, table=table, simulate_missing=False)
    out = run_test(s, cfg=cfg, table=table, simulate_missing=True)
    assert out.table_simulated


def test_run_test_small_sample_guard():
    with pytest.raises(GwentropyError):
        run_test(Sample([1.0]), cfg=TestConfig(replications=100))


# ---------- power studies ----------


def test_power_study_shapes_and_range():
    cfg = TestConfig(replications=400, seed=17)
    res = power_study(Weibull(2.0), [8, 16], levels=(0.05, 0.10), cfg=cfg)
    assert {(r.n, r.level) for r in res} == {(8, 0.05), (8, 0.10), (16, 0.05), (16, 0.10)}
    for r in res:
        assert 0.0 <= r.power <= 1.0
        assert r.replications == 400
        assert r.rejections == round(r.power * 400)


def test_power_study_rejects_small_sample_size():
    table = critical_values([5], cfg=TestConfig(replications=100))
    with pytest.raises(GwentropyError, match="at least 2"):
        power_study(Weibull(2.0), [1], cfg=TestConfig(replications=100), table=table)


def test_power_study_deterministic():
    cfg = TestConfig(replications=300, seed=8)
    a = power_study(Weibull(3.0), [10], levels=(0.05,), cfg=cfg)
    b = power_study(Weibull(3.0), [10], levels=(0.05,), cfg=cfg)
    assert [(r.n, r.level, r.rejections) for r in a] == [(r.n, r.level, r.rejections) for r in b]


def test_power_study_accepts_precomputed_table():
    cfg = TestConfig(replications=300, seed=8)
    table = critical_values([10], cfg=cfg)
    a = power_study(Weibull(3.0), [10], levels=(0.05,), cfg=cfg, table=table)
    b = power_study(Weibull(3.0), [10], levels=(0.05,), cfg=cfg)
    assert [r.rejections for r in a] == [r.rejections for r in b]


def test_power_increases_with_n_for_fixed_alternative():
    cfg = TestConfig(replications=1500, seed=20)
    res = power_study(Weibull(3.0), [5, 30], levels=(0.05,), cfg=cfg)
    by_n = {r.n: r.power for r in res}
    assert by_n[30] > by_n[5]


def test_null_simulation_matches_unit_exponential():
    # the statistic is scale-free, so the null table built at unit rate must
    # govern any exponential rate; check the rejection frequency directly
    cfg = TestConfig(replications=2000, seed=31)
    table = critical_values([12], cfg=cfg)
    cv = table.value(12, 0.05)
    rejections = 0
    reps = 1000
    for rep in range(reps):
        rng = SeededSampler(404, rep).generator()
        s = Sample(Exponential(9.0).sample_values(12, rng))
        if statistic(s).t_value < cv:
            rejections += 1
    assert abs(rejections / reps - 0.05) < 0.02
