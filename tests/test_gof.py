"""Exponentiality test: statistic, critical tables, power machinery."""

import json
import math

import numpy as np
import pytest

from gwentropy import (
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
from gwentropy.distributions import Exponential, SeededSampler, Weibull
from gwentropy.errors import GwentropyError, MissingTableEntryError

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


def test_quantile_index_matches_order_statistic():
    # the critical value must be the ceil(level * B)-th smallest simulated T
    cfg = TestConfig(replications=200, seed=3)
    t = critical_values([6], levels=(0.05,), cfg=cfg)
    from gwentropy.gof import _replicate

    # the null is the Exponential(1) alternative on tag 1
    draws = np.sort(_replicate(Exponential(1.0), 1, cfg, 6, 0, 200))
    assert t.value(6, 0.05) == draws[math.ceil(0.05 * 200) - 1]


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


def test_replication_block_survives_zero_draw(monkeypatch):
    # rng.random may return exactly 0; it must map to the support bottom
    class ZeroFirst:
        def random(self, n):
            return np.linspace(0.0, 0.9, n)

    from gwentropy import gof

    monkeypatch.setattr(gof.SeededSampler, "generator", lambda self: ZeroFirst())
    t = gof._replicate(Exponential(1.0), 1, TestConfig(), 8, 0, 3)
    assert np.all((t > 0.0) & (t <= 1.0))


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
