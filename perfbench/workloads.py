"""The four closed-loop workloads and the oracle each operation must meet.

A workload is a fixed list of operations built from the workload seed.  Each
operation makes one or a few calls into gwentropy's public functions, returns
a JSON-able output, and has a check that compares that output with an oracle
from `oracles` (None when it holds, else the reason).  `items` is the work an
operation completes, in the workload's unit (replications, measure
evaluations or observations); operations with items = 0 count towards the
pass wall time only.

Import after `package.load()`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from gwentropy import (
    CriticalTable,
    EntropyOrder,
    EstimatorVariant,
    Monotonicity,
    Sample,
    TestConfig,
    bound_check,
    classify_gdwse_monotonicity,
    critical_values,
    empirical_gwfe,
    empirical_gwse,
    gdwfe,
    gdwse,
    gfe,
    gse,
    gwfe,
    gwse,
    power_study,
    statistic,
)
from gwentropy.distributions import Exponential, Gamma, Pareto, Power, Rayleigh, Uniform, Weibull
from gwentropy.errors import DivergenceError
from gwentropy.verification import run_closed_form_suite

import oracles as orc
from tracing import NullTracer

ORDER = EntropyOrder(orc.ALPHA, orc.BETA)
G = ORDER.gamma

# critical-table grid of the acceptance suite: 4:30,35:50:5,60:100:10
TABLE_GRID = list(range(4, 31)) + list(range(35, 51, 5)) + list(range(60, 101, 10))
POWER_NS = (5, 10, 15, 20, 50, 100)
CURVE_POINTS = 64
CONSISTENCY_SAMPLES, CONSISTENCY_N = 200, 5000
LARGE_NS = (10**6,) * 3 + (10**7,) * 2


@dataclass
class Op:
    name: str
    items: int
    run: Callable
    check: Callable


@dataclass
class Workload:
    name: str
    item_unit: str
    ops: list[Op]


def alternatives():
    """The power-study alternatives: one inversion and one rejection sampler."""
    return {"weibull2": Weibull(2.0), "gamma5": Gamma(5.0)}


def reference_table(n_values) -> CriticalTable:
    return CriticalTable(
        order=ORDER,
        levels=orc.LEVELS,
        rows={n: orc.REFERENCE_CRITICAL_VALUES[n] for n in n_values},
        replications=orc.B,
        seed=0,
        variant=EstimatorVariant.GAPS_ONLY,
    )


# ---------- null-table ----------


def _check_row(n: int, values) -> str | None:
    if not all(0.0 < v <= 1.0 for v in values) or list(values) != sorted(values):
        return f"row {values} not increasing inside (0, 1]"
    for level, v, ref in zip(orc.LEVELS, values, orc.REFERENCE_CRITICAL_VALUES[n]):
        if (n, level) not in orc.EXCLUDED_CELLS and abs(v - ref) > orc.TABLE_TOL:
            return f"level {level}: {v:.5f} vs reference {ref:.5f}"
    return None


def null_table(seed: int) -> Workload:
    cfg = TestConfig(order=ORDER, replications=orc.B, seed=seed)

    def row(n: int) -> Op:
        def run(tr):
            with tr.span("gof.critical_values"):
                table = critical_values([n], orc.LEVELS, cfg)
            return list(table.rows[n])

        return Op(f"critical_values n={n}", orc.B, run, lambda out: _check_row(n, out))

    return Workload("null-table", "null replications", [row(n) for n in TABLE_GRID])


# ---------- power-alt ----------


def power_alt(seed: int) -> Workload:
    cfg = TestConfig(order=ORDER, replications=orc.B, seed=seed)
    table = reference_table(POWER_NS)

    def cell(label: str, alt, n: int) -> Op:
        def run(tr):
            with tr.span("gof.power_study"):
                res = power_study(alt, [n], orc.LEVELS, cfg, table=table)
            return [[r.level, r.critical_value, r.rejections] for r in res]

        def check(out) -> str | None:
            if [row[0] for row in out] != list(orc.LEVELS):
                return f"levels {out}"
            rejections = [row[2] for row in out]
            if rejections != sorted(rejections) or not 0 <= rejections[0] <= rejections[-1] <= orc.B:
                return f"rejections {rejections} not nondecreasing in [0, B]"
            for (level, cv, rej), ref in zip(out, orc.REFERENCE_CRITICAL_VALUES[n]):
                if cv != ref:
                    return f"critical value {cv} is not the supplied {ref}"
                anchor = orc.POWER_ANCHORS.get((label, n, level))
                if anchor is not None and abs(rej / orc.B - anchor) > orc.POWER_TOL:
                    return f"anchor @ {level}: {rej / orc.B:.4f} vs {anchor}"
            return None

        return Op(f"power_study {label} n={n}", orc.B, run, check)

    ops = [cell(label, alt, n) for label, alt in alternatives().items() for n in POWER_NS]
    return Workload("power-alt", "alternative replications", ops)


# ---------- measures ----------


def quantile_grid(quantile) -> list[float]:
    """CURVE_POINTS points between the 0.001 and 0.999 quantiles."""
    return [float(t) for t in np.linspace(quantile(0.001), quantile(0.999), CURVE_POINTS)]


def curve_grids() -> dict[str, list[float]]:
    return {
        "gamma2": quantile_grid(lambda u: float(special.gammaincinv(2.0, u))),
        "weibull15": quantile_grid(lambda u: (-math.log1p(-u)) ** (1.0 / 1.5)),
        "power2": quantile_grid(lambda u: u ** 0.5),
    }


def _integral_op(name: str, call, integral: float) -> Op:
    def run(tr):
        with tr.span(name.split("(")[0]):
            return call().value

    def check(value) -> str | None:
        err = orc.rel_err(value, integral)
        return None if err <= orc.INTEGRAL_RTOL else f"relative error {err:.2e} on the integral scale"

    return Op(name, 1, run, check)


def _divergent_op(name: str, call) -> Op:
    def run(tr):
        try:
            with tr.span(name.split("(")[0]):
                call()
        except DivergenceError:
            return "DivergenceError"
        return "returned"

    return Op(name, 1, run, lambda out: None if out == "DivergenceError" else "did not raise DivergenceError")


def measures(seed: int) -> Workload:
    ops: list[Op] = []
    q = "quadrature"
    static = [
        ("gamma2", Gamma(2.0), "auto", lambda w: orc.gamma2_survival(G, 0.0, w)),
        ("weibull07", Weibull(0.7), "auto", lambda w: orc.weibull_survival(0.7, G, 0.0, w)),
        ("weibull15", Weibull(1.5), "auto", lambda w: orc.weibull_survival(1.5, G, 0.0, w)),
        ("exponential", Exponential(1.0), q, lambda w: orc.exponential_survival(1.0, G, w)),
        ("pareto", Pareto(5.0, 1.0), q, lambda w: orc.pareto_survival(5.0, 1.0, G, w)),
        ("rayleigh", Rayleigh(0.5), q, lambda w: orc.rayleigh_survival(0.5, G, w)),
        ("uniform", Uniform(0.0, 2.0), q, lambda w: orc.uniform0_survival(2.0, G, w)),
    ]
    for label, d, method, integral in static:
        ops.append(_integral_op(f"entropy.gwse({label})", lambda d=d, m=method: gwse(d, ORDER, method=m), integral(True)))
        ops.append(_integral_op(f"entropy.gse({label})", lambda d=d, m=method: gse(d, ORDER, method=m), integral(False)))
    for label, d, integral in [
        ("uniform", Uniform(0.0, 2.0), lambda w: orc.uniform0_failure(2.0, G, w)),
        ("power", Power(2.0, 1.0), lambda w: orc.power_failure(2.0, 1.0, G, w)),
    ]:
        ops.append(_integral_op(f"entropy.gwfe({label})", lambda d=d: gwfe(d, ORDER, method=q), integral(True)))
        ops.append(_integral_op(f"entropy.gfe({label})", lambda d=d: gfe(d, ORDER, method=q), integral(False)))

    grids = curve_grids()
    for label, d, oracle in [
        ("gamma2", Gamma(2.0), lambda t: orc.gamma2_survival(G, t, True)),
        ("weibull15", Weibull(1.5), lambda t: orc.weibull_survival(1.5, G, t, True)),
    ]:
        for t in grids[label]:
            ops.append(_integral_op(f"entropy.gdwse({label}, t={t:.6g})", lambda d=d, t=t: gdwse(d, ORDER, t), oracle(t)))
    power = Power(2.0, 1.0)
    for t in grids["power2"]:
        ops.append(
            _integral_op(
                f"entropy.gdwfe(power, t={t:.6g})",
                lambda t=t: gdwfe(power, ORDER, t, method=q),
                orc.power_failure(2.0, t, G, True),
            )
        )
    ops.append(_divergent_op("entropy.gwse(pareto 1.5)", lambda: gwse(Pareto(1.5, 1.0), ORDER)))
    ops.append(_divergent_op("entropy.gwfe(exponential)", lambda: gwfe(Exponential(1.0), ORDER)))

    def classify(tr):
        with tr.span("checks.classify_gdwse_monotonicity"):
            return classify_gdwse_monotonicity(Gamma(2.0), ORDER).value

    ops.append(
        Op("checks.classify_gdwse_monotonicity(gamma2)", 0, classify,
           lambda out: None if out == Monotonicity.INCREASING.value else f"classified {out}")
    )
    for label, d, t in [("weibull15", Weibull(1.5), 0.8), ("uniform", Uniform(0.0, 2.0), 1.0)]:
        def bounds(tr, d=d, t=t):
            with tr.span("checks.bound_check"):
                report = bound_check(d, ORDER, t=t)
            return [[r.name, r.margin] for r in report.results if r.applicable] if report.all_hold() else "violated"

        ops.append(Op(f"checks.bound_check({label}, t={t})", 0, bounds,
                      lambda out: None if out != "violated" else "a bound does not hold"))

    def suite(tr):
        with tr.span("verification.run_closed_form_suite"):
            cells = run_closed_form_suite(draws=20, seed=seed)
        return [[c.name, c.max_rel_err, c.ok] for c in cells]

    ops.append(Op("verification.run_closed_form_suite", 0, suite,
                  lambda out: None if all(c[2] for c in out) else f"cells not ok: {[c[0] for c in out if not c[2]]}"))
    return Workload("measures", "measure evaluations", ops)


# ---------- estimator-study ----------


def estimator_inputs(seed: int, large: bool = True) -> list[np.ndarray]:
    """Unit exponential samples: the n = 5000 consistency study, then large n."""
    rng = np.random.default_rng(seed)
    xs = [rng.standard_exponential(CONSISTENCY_N) for _ in range(CONSISTENCY_SAMPLES)]
    if large:
        xs += [rng.standard_exponential(n) for n in LARGE_NS]
    return xs


def estimator_chain(tr, x: np.ndarray) -> list[float]:
    with tr.span("empirical.Sample"):
        s = Sample(x)
    with tr.span("empirical.empirical_gwse"):
        surv = empirical_gwse(s, ORDER)
    with tr.span("empirical.empirical_gwfe"):
        fail = empirical_gwfe(s, ORDER)
    with tr.span("gof.statistic"):
        stat = statistic(s, ORDER)
    return [surv, fail, stat.estimate, stat.t_value]


def _check_chain(out, surv: float, fail: float, mean: float) -> str | None:
    est_s, est_f, stat_est, t_value = out
    errs = [
        orc.rel_err(est_s, surv),
        orc.rel_err(est_f, fail),
        orc.rel_err(stat_est, surv),
    ]
    plug_in = -2.0 * (math.log(G) - math.log(mean)) / ORDER.delta
    t_oracle = math.exp(-abs(math.log(surv) / ORDER.delta - plug_in))
    errs.append(abs(t_value - t_oracle) / t_oracle)
    if not 0.0 < t_value <= 1.0:
        return f"T = {t_value} outside (0, 1]"
    worst = max(errs)
    return None if worst <= orc.ESTIMATOR_RTOL else f"relative error {worst:.2e} against the numpy gap sum"


def estimator_study(seed: int) -> Workload:
    def one(x: np.ndarray) -> Op:
        sums = []  # oracle gap sums, computed at the first check

        def check(out):
            if not sums:
                sums.extend(orc.gap_sums(x))
            return _check_chain(out, *sums)

        return Op(f"estimate n={x.size}", x.size, lambda tr: estimator_chain(tr, x), check)

    return Workload("estimator-study", "observations", [one(x) for x in estimator_inputs(seed)])


def consistency_mae(outputs) -> float:
    """Mean |gwse estimate - truth| over the n = 5000 samples (known to miss 0.05)."""
    truth = orc.exponential_gwse_truth()
    return float(np.mean([abs(out[0] - truth) for out in outputs[:CONSISTENCY_SAMPLES]]))


def diagnostics(name: str, outputs: list, llc_bytes: int | None) -> list[str]:
    """Reported, never gated: facts about the first pass's outputs."""
    if None in outputs:
        return ["diagnostic skipped: an operation raised"]
    if name == "null-table":
        worst = max(
            (abs(v - ref), n, level)
            for n, row in zip(TABLE_GRID, outputs)
            for level, v, ref in zip(orc.LEVELS, row, orc.REFERENCE_CRITICAL_VALUES[n])
            if (n, level) not in orc.EXCLUDED_CELLS
        )
        return [f"diagnostic worst |critical value - reference| = {worst[0]:.4f} at n={worst[1]},"
                f" level {worst[2]} (tolerance {orc.TABLE_TOL})"]
    if name == "power-alt":
        lines = []
        for (label, n, level), ref in orc.POWER_ANCHORS.items():
            cell = outputs[list(alternatives()).index(label) * len(POWER_NS) + POWER_NS.index(n)]
            power = next(rej for lv, _, rej in cell if lv == level) / orc.B
            lines.append(f"diagnostic power anchor {label} n={n} @ {level}: {power:.4f} vs {ref} (tolerance {orc.POWER_TOL})")
        return lines
    if name == "estimator-study":
        largest = max(LARGE_NS) * 8
        share = f" = {largest / llc_bytes:.2f} x LLC" if llc_bytes else ""
        return [
            f"diagnostic empirical.mae_n5000 = {consistency_mae(outputs):.4f}"
            " (acceptance target < 0.05, known to fail by design; not gated)",
            f"diagnostic largest input array {largest / 2**20:.1f} MiB{share}; the Sample copy and the"
            " estimator temporaries add several arrays of that size",
        ]
    return []


BUILDERS = {
    "null-table": null_table,
    "power-alt": power_alt,
    "measures": measures,
    "estimator-study": estimator_study,
}


def warm_up(name: str) -> None:
    """The workload's first call at a tiny size: pays import-time and lazy set-up."""
    if name == "null-table":
        critical_values([4], orc.LEVELS, TestConfig(order=ORDER, replications=20))
    elif name == "power-alt":
        for alt in alternatives().values():
            power_study(alt, [5], orc.LEVELS, TestConfig(order=ORDER, replications=20), table=reference_table([5]))
    elif name == "measures":
        gwse(Exponential(1.0), ORDER, method="quadrature")
    else:
        estimator_chain(NullTracer(), np.array([0.5, 1.0, 2.0]))
