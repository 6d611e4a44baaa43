"""Monte-Carlo test of exponentiality built on the weighted survival measure.

Under exponentiality the weighted survival entropy equals
-2 * log(rate * gamma) / delta, so the distance between the order-statistic
estimate and that value with the rate replaced by 1 / sample mean measures
departure from the exponential family.  The test statistic is

    T = exp(-|estimate - plug_in|)  in (0, 1],

small values rejecting exponentiality.  T is exactly scale invariant
(both terms shift by 2 * log(c) / delta under x -> c * x), so null critical
values depend only on (order, n) and are simulated at unit rate.

One replication path serves both simulations: the null is the alternative
Exponential(1) on tag 1, power studies draw from their alternative on tag 2.
Replication r at size n draws from SeededSampler(seed, (tag << 56) |
(n << 32) | r), so results are bit-identical regardless of how the work is
split across worker processes.  statistic, empirical_gwse and the engine
share one estimator kernel, empirical._log_survival_sum.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .distributions import Distribution, Exponential, SeededSampler
from .empirical import EstimatorVariant, Sample, _log_survival_sum, _survival_weights
from .entropy import EntropyOrder
from .errors import GwentropyError, MissingTableEntryError

__all__ = [
    "TestConfig",
    "TestStatistic",
    "TestOutcome",
    "CriticalTable",
    "PowerResult",
    "statistic",
    "critical_values",
    "run_test",
    "power_study",
    "DEFAULT_LEVELS",
]

DEFAULT_LEVELS = (0.01, 0.05, 0.10)

_TAG_NULL = 1
_TAG_ALT = 2


@dataclass(frozen=True)
class TestConfig:
    """Parameters shared by the simulation-backed operations."""

    __test__ = False  # not a test case, despite the name

    order: EntropyOrder = field(default_factory=lambda: EntropyOrder(0.26, 1.25))
    level: float = 0.05
    replications: int = 10000
    seed: int = 0
    variant: EstimatorVariant = EstimatorVariant.GAPS_ONLY

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise GwentropyError("level must lie strictly inside (0, 1)")
        if self.replications < 1:
            raise GwentropyError("replications must be positive")


@dataclass(frozen=True)
class TestStatistic:
    """Ingredients of one evaluation of the statistic."""

    lambda_hat: float
    estimate: float
    plug_in: float
    distance: float
    t_value: float


@dataclass(frozen=True)
class TestOutcome:
    n: int
    level: float
    critical_value: float
    statistic: TestStatistic
    reject: bool
    table_simulated: bool


@dataclass(frozen=True)
class PowerResult:
    n: int
    level: float
    critical_value: float
    replications: int
    rejections: int

    @property
    def power(self) -> float:
        return self.rejections / self.replications


# ---------- statistic ----------


def _t_parts(x: np.ndarray, mean: float, weights: np.ndarray, gamma: float, delta: float,
             include_head: bool) -> tuple[float, float, float]:
    """Estimate, plug-in -2 * log(gamma / mean) / delta and T for sorted values x."""
    estimate = _log_survival_sum(x, weights, include_head) / delta
    plug_in = -2.0 * (math.log(gamma) - math.log(mean)) / delta
    return estimate, plug_in, math.exp(-abs(estimate - plug_in))


def statistic(
    s: Sample,
    order: EntropyOrder | None = None,
    variant: EstimatorVariant = EstimatorVariant.GAPS_ONLY,
) -> TestStatistic:
    """Evaluate the exponentiality statistic on a sample."""
    if order is None:
        order = EntropyOrder(0.26, 1.25)
    if s.n < 2:
        raise GwentropyError("statistic needs at least 2 observations")
    mean = float(s.values.mean())
    weights = _survival_weights(s.n, order.gamma)
    include_head = variant is EstimatorVariant.FULL_STEP
    estimate, plug_in, t = _t_parts(s.values, mean, weights, order.gamma, order.delta, include_head)
    return TestStatistic(
        lambda_hat=1.0 / mean,
        estimate=estimate,
        plug_in=plug_in,
        distance=abs(estimate - plug_in),
        t_value=t,
    )


# ---------- replication engine ----------


def _replicate(d: Distribution, tag: int, cfg: TestConfig, n: int, start: int, stop: int) -> np.ndarray:
    """T for replications [start, stop) of size-n samples drawn from d."""
    gamma, delta = cfg.order.gamma, cfg.order.delta
    weights = _survival_weights(n, gamma)
    include_head = cfg.variant is EstimatorVariant.FULL_STEP
    out = np.empty(stop - start, dtype=float)
    for r in range(start, stop):
        x = d.sample_values(n, SeededSampler(cfg.seed, (tag << 56) | (n << 32) | r).generator())
        x.sort()
        out[r - start] = _t_parts(x, x.mean(), weights, gamma, delta, include_head)[2]
    return out


def _gather_blocks(block_fn, static_args: tuple, n: int, reps: int, workers: int) -> np.ndarray:
    """Run block_fn over [0, reps) split into ranges; order-independent."""
    if workers <= 1:
        return block_fn(*static_args, n, 0, reps)
    chunk = max(250, -(-reps // (workers * 4)))
    out = np.empty(reps, dtype=float)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {}
        for start in range(0, reps, chunk):
            stop = min(start + chunk, reps)
            fut = pool.submit(block_fn, *static_args, n, start, stop)
            futures[fut] = (start, stop)
        for fut, (start, stop) in futures.items():
            out[start:stop] = fut.result()
    return out


def _sample_sizes(n_values) -> list[int]:
    """Sorted distinct sample sizes, each at least 2."""
    ns = sorted(set(int(n) for n in n_values))
    if not ns:
        raise GwentropyError("n_values must be non-empty")
    if ns[0] < 2:
        raise GwentropyError("sample sizes must be at least 2")
    return ns


def _lower_quantile(sorted_t: np.ndarray, level: float) -> float:
    """The ceil(level * B)-th smallest simulated value."""
    b = sorted_t.size
    k = math.ceil(level * b - 1e-9)
    k = min(max(k, 1), b)
    return float(sorted_t[k - 1])


# ---------- critical-value table ----------


@dataclass(frozen=True)
class CriticalTable:
    """Critical values T_{level, n}: reject when T < value.

    Carries its own provenance (order, replications, seed, variant) so a
    serialized table can be audited and reproduced.
    """

    order: EntropyOrder
    levels: tuple[float, ...]
    rows: dict[int, tuple[float, ...]]
    replications: int
    seed: int
    variant: EstimatorVariant

    def value(self, n: int, level: float) -> float:
        if n not in self.rows:
            raise MissingTableEntryError(f"no critical values for n={n}")
        for lv, v in zip(self.levels, self.rows[n]):
            if math.isclose(lv, level, rel_tol=0.0, abs_tol=1e-12):
                return v
        raise MissingTableEntryError(f"no critical value at level {level:g}")

    @property
    def n_values(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows))

    def monotone_violations(self, slack: float = 0.01) -> list[str]:
        """Soft sanity check: values should not decrease in n by more than
        Monte-Carlo slack, and must increase with the level for fixed n."""
        issues = []
        for n in self.n_values:
            row = self.rows[n]
            for a, b in zip(row, row[1:]):
                if b < a:
                    issues.append(f"n={n}: values not increasing across levels")
                    break
        ns = self.n_values
        for j, level in enumerate(self.levels):
            for a, b in zip(ns, ns[1:]):
                if self.rows[b][j] < self.rows[a][j] - slack:
                    issues.append(f"level={level:g}: drop from n={a} to n={b}")
        return issues

    # ---------- serialization ----------

    def to_json(self) -> str:
        doc = {
            "schema": 1,
            "kind": "critical-table",
            "order": {"alpha": self.order.alpha, "beta": self.order.beta},
            "levels": list(self.levels),
            "replications": self.replications,
            "seed": self.seed,
            "variant": self.variant.value,
            "rows": [
                {"n": n, "values": list(self.rows[n])} for n in self.n_values
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CriticalTable":
        """Parse a schema-1 table; any malformed document raises GwentropyError."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise GwentropyError(f"critical table is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("schema") != 1 or doc.get("kind") != "critical-table":
            raise GwentropyError("not a schema-1 critical-table document")
        try:
            order = EntropyOrder(doc["order"]["alpha"], doc["order"]["beta"])
            levels = tuple(float(v) for v in doc["levels"])
            rows = {int(row["n"]): tuple(float(v) for v in row["values"]) for row in doc["rows"]}
            table = cls(
                order=order,
                levels=levels,
                rows=rows,
                replications=int(doc["replications"]),
                seed=int(doc["seed"]),
                variant=EstimatorVariant(doc["variant"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GwentropyError(f"malformed critical-table document: {exc!r}") from exc
        if any(len(values) != len(levels) for values in rows.values()):
            raise GwentropyError("malformed critical-table document: row length differs from levels")
        return table

    def to_csv(self) -> str:
        lines = ["n,level,value"]
        for n in self.n_values:
            for level, v in zip(self.levels, self.rows[n]):
                lines.append(f"{n},{level:g},{v:.5f}")
        return "\n".join(lines) + "\n"


def critical_values(
    n_values,
    levels=DEFAULT_LEVELS,
    cfg: TestConfig | None = None,
    workers: int = 1,
) -> CriticalTable:
    """Simulate the null distribution of T and tabulate lower quantiles.

    For each n, cfg.replications unit-rate exponential samples are drawn on
    per-replication substreams and the ceil(level * B)-th order statistic of
    T is recorded per level.  Output is a pure function of (cfg, n_values,
    levels); the worker count only changes the wall time.
    """
    cfg = cfg or TestConfig()
    levels = tuple(float(v) for v in levels)
    if not levels or any(not 0.0 < v < 1.0 for v in levels):
        raise GwentropyError("levels must lie strictly inside (0, 1)")
    rows: dict[int, tuple[float, ...]] = {}
    for n in _sample_sizes(n_values):
        t = _gather_blocks(_replicate, (Exponential(1.0), _TAG_NULL, cfg), n, cfg.replications, workers)
        t.sort()
        rows[n] = tuple(_lower_quantile(t, lv) for lv in levels)
    return CriticalTable(
        order=cfg.order,
        levels=levels,
        rows=rows,
        replications=cfg.replications,
        seed=cfg.seed,
        variant=cfg.variant,
    )


# ---------- test and power ----------


def run_test(
    s: Sample,
    cfg: TestConfig | None = None,
    table: CriticalTable | None = None,
    simulate_missing: bool = True,
) -> TestOutcome:
    """Test exponentiality of a sample at cfg.level.

    The critical value comes from the supplied table when it covers
    (n, level); otherwise it is simulated under cfg on the spot, unless
    simulate_missing is disabled, in which case the lookup error surfaces.
    """
    cfg = cfg or TestConfig()
    stat = statistic(s, cfg.order, cfg.variant)
    n = s.n
    simulated = False
    cv = None
    if table is not None:
        try:
            cv = table.value(n, cfg.level)
        except MissingTableEntryError:
            if not simulate_missing:
                raise
    if cv is None:
        if table is None and not simulate_missing:
            raise MissingTableEntryError("no table supplied and simulation disabled")
        own = critical_values([n], (cfg.level,), cfg)
        cv = own.value(n, cfg.level)
        simulated = True
    return TestOutcome(
        n=n,
        level=cfg.level,
        critical_value=cv,
        statistic=stat,
        reject=stat.t_value < cv,
        table_simulated=simulated,
    )


def power_study(
    alt: Distribution,
    n_values,
    levels=DEFAULT_LEVELS,
    cfg: TestConfig | None = None,
    table: CriticalTable | None = None,
    workers: int = 1,
) -> list[PowerResult]:
    """Rejection rate against an alternative distribution.

    Draws cfg.replications samples from `alt` per n (on substreams disjoint
    from the null ones) and counts T below the critical value.  When no
    table is supplied one is simulated under cfg first.
    """
    cfg = cfg or TestConfig()
    levels = tuple(float(v) for v in levels)
    ns = _sample_sizes(n_values)
    if table is None:
        table = critical_values(ns, levels, cfg, workers)
    results = []
    for n in ns:
        t = _gather_blocks(_replicate, (alt, _TAG_ALT, cfg), n, cfg.replications, workers)
        for level in levels:
            cv = table.value(n, level)
            results.append(
                PowerResult(
                    n=n,
                    level=level,
                    critical_value=cv,
                    replications=cfg.replications,
                    rejections=int((t < cv).sum()),
                )
            )
    return results
