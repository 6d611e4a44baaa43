"""Per-layer probes of the traced run.

Each probe times one public gwentropy call (or a batch of short ones) inside
a span of its own name, distinct from the workload's spans, so the written
trace shows where every per-layer number came from.  Probe inputs are fixed (PROBE_SEED), not
taken from the workload seed, so the counts repeat exactly between runs;
only empirical.mae_n5000 uses the workload seed, as the estimator-study does.

`measure` returns ({metric: (value, unit)}, [failure messages]).  Every count
is taken twice and a mismatch is a failure.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from gwentropy import (
    Sample,
    TestConfig,
    bound_check,
    classify_gdwse_monotonicity,
    critical_values,
    empirical_gwfe,
    empirical_gwse,
    gdwse,
    gwfe,
    gwse,
    power_study,
    statistic,
)
from gwentropy import cli
from gwentropy.distributions import Exponential, Gamma, Pareto, Power, Rayleigh, SeededSampler, Uniform, Weibull
from gwentropy.verification import run_closed_form_suite

import oracles as orc
import workloads as wl
from package import OUT

PROBE_SEED = 20261017
PROBE_B = 2000
SMALL_N = 20
BATCH = 200  # short calls are timed in batches of this many; the metric is per call


def _batched(tr, name: str, fn, batches: int = 7) -> float:
    """Seconds per call of fn, median over batches of BATCH calls."""
    for _ in range(batches):
        with tr.span(name):
            for _ in range(BATCH):
                fn()
    return tr.median(name) / BATCH


def _repeat(tr, name: str, fn, reps: int = 3) -> float:
    """Median seconds of fn over reps calls."""
    for _ in range(reps):
        with tr.span(name):
            fn()
    return tr.median(name)


def _words_drawn(gen: np.random.Generator) -> int:
    """Philox 64-bit words a fresh generator has produced so far."""
    st = gen.bit_generator.state
    return 4 * int(st["state"]["counter"][0]) + int(st["buffer_pos"]) - 4


def _words_per_value(alt, streams: int = 200) -> float:
    words = 0
    for stream in range(streams):
        gen = SeededSampler(PROBE_SEED, stream).generator()
        alt.sample_values(SMALL_N, gen)
        words += _words_drawn(gen)
    return words / (streams * SMALL_N)


def _counting(cls, *args):
    """An instance of a subclass of cls that counts sf/isf/pdf/cdf calls.

    Being a subclass keeps gwentropy's isinstance dispatch unchanged.  A call
    that one of these methods makes to another on the instance counts too.
    """

    class Counting(cls):
        calls = 0

        def sf(self, x):
            self.calls += 1
            return super().sf(x)

        def isf(self, v):
            self.calls += 1
            return super().isf(v)

        def pdf(self, x):
            self.calls += 1
            return super().pdf(x)

        def cdf(self, x):
            self.calls += 1
            return super().cdf(x)

    return Counting(*args)


def _fresh_import_s(reps: int = 3) -> float:
    """Median seconds to import gwentropy.cli in a fresh interpreter."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, str(probe), "import-cli"], capture_output=True, text=True, check=True, timeout=120
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def measure(tr, seed: int) -> tuple[dict, list[str]]:
    m: dict[str, tuple[float, str]] = {}
    failures: list[str] = []
    us, ms = 1e6, 1e3

    def count(name: str, fn) -> None:
        first, second = fn(), fn()
        if first != second:
            failures.append(f"{name}: count did not repeat ({first} then {second})")
        m[name] = (first, "count")

    # ---- distributions ----
    sampler = SeededSampler(PROBE_SEED, 1)
    gen = sampler.generator()
    m["distributions.generator_us"] = (_batched(tr, "distributions.generator", sampler.generator) * us, "us")
    alts = wl.alternatives()
    for label, d in [("exponential", Exponential(1.0)), *alts.items()]:
        t = _batched(tr, f"distributions.sample_values.{label}", lambda d=d: d.sample_values(SMALL_N, gen))
        m[f"distributions.sample_us.{label}"] = (t * us, "us")
    for label, d in alts.items():
        count(f"distributions.words_per_value.{label}", lambda d=d: _words_per_value(d))

    # ---- gof ----
    cfg = TestConfig(order=wl.ORDER, replications=PROBE_B, seed=PROBE_SEED)
    for n in (4, 20, 100):
        t = _repeat(tr, f"gof.critical_values.n{n}", lambda n=n: critical_values([n], orc.LEVELS, cfg))
        m[f"gof.rep_us.n{n}"] = (t / PROBE_B * us, "us")
    table20 = wl.reference_table([SMALL_N])
    for label, d in alts.items():
        t = _repeat(tr, f"gof.power_study.{label}", lambda d=d: power_study(d, [SMALL_N], orc.LEVELS, cfg, table=table20))
        m[f"gof.alt_rep_us.{label}"] = (t / PROBE_B * us, "us")
    rng = np.random.default_rng(PROBE_SEED)
    s20 = Sample(rng.standard_exponential(SMALL_N))
    m["gof.statistic_us.n20"] = (_batched(tr, "gof.statistic.n20", lambda: statistic(s20, wl.ORDER)) * us, "us")
    x6 = rng.standard_exponential(10**6)
    s6 = Sample(x6)
    m["gof.statistic_ms.n1e6"] = (_repeat(tr, "gof.statistic.n1e6", lambda: statistic(s6, wl.ORDER)) * ms, "ms")
    rep20 = m["gof.rep_us.n20"][0]
    mirrored = m["distributions.generator_us"][0] + m["distributions.sample_us.exponential"][0]
    m["gof.rng_share.n20"] = (mirrored / rep20, "1")
    m["gof.rep_us.n20.mirrored_sum"] = (mirrored + m["gof.statistic_us.n20"][0], "us")
    tracemalloc.start()
    try:
        with tr.span("gof.critical_values.n100.tracemalloc"):
            critical_values([100], orc.LEVELS, TestConfig(order=wl.ORDER, replications=orc.B, seed=PROBE_SEED))
        m["gof.table_peak_mb"] = (tracemalloc.get_traced_memory()[1] / 2**20, "MB")
    finally:
        tracemalloc.stop()
    workers = min(2, os.cpu_count() or 1)
    b_pool = 2 * PROBE_B
    pool_cfg = TestConfig(order=wl.ORDER, replications=b_pool, seed=PROBE_SEED)
    t = _repeat(tr, "gof.critical_values.n20.workers", lambda: critical_values([SMALL_N], orc.LEVELS, pool_cfg, workers=workers), 2)
    m["gof.rep_us.n20.workers2"] = (t / b_pool * us, "us")

    # ---- empirical ----
    x20 = s20.values.copy()
    m["empirical.sample_build_us.n20"] = (_batched(tr, "empirical.Sample.n20", lambda: Sample(x20)) * us, "us")
    m["empirical.sample_build_ms.n1e6"] = (_repeat(tr, "empirical.Sample.n1e6", lambda: Sample(x6)) * ms, "ms")
    m["empirical.gwse_us.n20"] = (_batched(tr, "empirical.empirical_gwse.n20", lambda: empirical_gwse(s20, wl.ORDER)) * us, "us")
    m["empirical.gwse_ms.n1e6"] = (_repeat(tr, "empirical.empirical_gwse.n1e6", lambda: empirical_gwse(s6, wl.ORDER)) * ms, "ms")
    m["empirical.gwfe_ms.n1e6"] = (_repeat(tr, "empirical.empirical_gwfe.n1e6", lambda: empirical_gwfe(s6, wl.ORDER)) * ms, "ms")
    del s6, x6
    x7 = rng.standard_exponential(10**7)
    with tr.span("empirical.chain.n1e7"):
        s7 = Sample(x7)
        empirical_gwse(s7, wl.ORDER)
        empirical_gwfe(s7, wl.ORDER)
    # computed, not measured: one pass over an n-length float64 array per call
    m["empirical.computed_gb_per_s.n1e7"] = (3 * x7.nbytes / tr.median("empirical.chain.n1e7") / 1e9, "GB/s")
    del s7, x7
    with tr.span("empirical.consistency.n5000"):
        estimates = [empirical_gwse(Sample(x), wl.ORDER) for x in wl.estimator_inputs(seed, large=False)]
    truth = orc.exponential_gwse_truth()
    m["empirical.mae_n5000"] = (float(np.mean([abs(e - truth) for e in estimates])), "1")

    # ---- entropy and quadrature ----
    q = "quadrature"
    for label, d, method in [
        ("gamma2", Gamma(2.0), "auto"),
        ("weibull07", Weibull(0.7), "auto"),
        ("weibull15", Weibull(1.5), "auto"),
        ("exponential_quad", Exponential(1.0), q),
        ("pareto_quad", Pareto(5.0, 1.0), q),
        ("rayleigh_quad", Rayleigh(0.5), q),
    ]:
        t = _repeat(tr, f"entropy.gwse.{label}", lambda d=d, method=method: gwse(d, wl.ORDER, method=method))
        m[f"entropy.gwse_ms.{label}"] = (t * ms, "ms")
    power = Power(2.0, 1.0)
    m["entropy.gwfe_ms.power_quad"] = (_repeat(tr, "entropy.gwfe.power_quad", lambda: gwfe(power, wl.ORDER, method=q)) * ms, "ms")
    gamma2 = Gamma(2.0)
    points = wl.curve_grids()["gamma2"][::8]
    with tr.span("entropy.gdwse.gamma2.curve"):
        for t_point in points:
            gdwse(gamma2, wl.ORDER, t_point)
    m["entropy.gdwse_ms.gamma2"] = (tr.median("entropy.gdwse.gamma2.curve") / len(points) * ms, "ms")
    exp1 = Exponential(1.0)
    m["entropy.closed_us.exponential"] = (_batched(tr, "entropy.gwse.exponential_closed", lambda: gwse(exp1, wl.ORDER)) * us, "us")
    for label, cls, args, call in [
        ("gamma2", Gamma, (2.0,), gwse),
        ("weibull07", Weibull, (0.7,), gwse),
        ("pareto_quad", Pareto, (5.0, 1.0), lambda d, o: gwse(d, o, method=q)),
        ("power_quad", Power, (2.0, 1.0), lambda d, o: gwfe(d, o, method=q)),
    ]:
        def evals(cls=cls, args=args, call=call):
            d = _counting(cls, *args)
            call(d, wl.ORDER)
            return d.calls

        count(f"quad.evals.{label}", evals)

    # ---- checks and verification ----
    m["checks.classify_s.gamma2"] = (_repeat(tr, "checks.classify_gdwse_monotonicity.gamma2", lambda: classify_gdwse_monotonicity(gamma2, wl.ORDER), 1), "s")
    for d, t_point in [(Weibull(1.5), 0.8), (Uniform(0.0, 2.0), 1.0)]:
        with tr.span("checks.bound_check.probe"):
            bound_check(d, wl.ORDER, t=t_point)
    m["checks.bound_check_ms"] = (statistics.mean(tr.durations("checks.bound_check.probe")) * ms, "ms")
    m["verification.suite_s"] = (_repeat(tr, "verification.run_closed_form_suite.draws20", lambda: run_closed_form_suite(draws=20), 1), "s")

    # ---- cli ----
    m["cli.import_s"] = (_fresh_import_s(), "s")
    OUT.mkdir(exist_ok=True)
    small = TestConfig(order=wl.ORDER, replications=20, seed=PROBE_SEED)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        argv = ["critical-table", "--n", "4:6", "-B", "20", "--seed", str(PROBE_SEED), "--out", str(Path(tmp) / "t.json")]
        for _ in range(15):
            with tr.span("cli.main.critical-table"):
                code = cli.main(argv)
            with tr.span("gof.critical_values.cli-args"):
                critical_values([4, 5, 6], orc.LEVELS, small)
            if code != 0:
                failures.append(f"cli.main exited {code}")
    overhead = tr.median("cli.main.critical-table") - tr.median("gof.critical_values.cli-args")
    m["cli.overhead_ms"] = (overhead * ms, "ms")
    return m, failures
