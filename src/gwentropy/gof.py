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
(n << 32) | r).  _replicate takes the replications in blocks of about
empirical._BLOCK_VALUES = 32 768 values (rows x n), twice the kernel's
chunk, which bounds its memory at any n and B, and draws each row with the
bits of its stream sampled on its own, from an array Philox
(Distribution._sample_streams, the values empirical.sample draws too):
inversion families (and the PH, PRH and Affine wrappers over them) put one
block of uniforms through _quantile, and Gamma (and Affine over it) runs its
one set of rejection rounds, distributions._gamma_rounds, on every row of
the block at once, with ziggurat normals read from the same words and the
rounds' per-value arrays in one workspace of four arrays of the block's
values.  A block is
sorted and reduced row-wise by the kernel shared with statistic and the
empirical estimators, empirical._gap_sums, and _t_parts, statistic's own
tail, finishes the whole block's T with math.log and math.exp mapped over
its rows.
The engine runs in the calling process; the workers argument of
critical_values and power_study is accepted and ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._quad import _mapped
from .distributions import Distribution, Exponential
from .empirical import _BLOCK_VALUES, EstimatorVariant, Sample, _gap_sums, _log_gap_sum
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
    "DEFAULT_ORDER",
]

DEFAULT_LEVELS = (0.01, 0.05, 0.10)
DEFAULT_ORDER = EntropyOrder(0.26, 1.25)

_TAG_NULL = 1
_TAG_ALT = 2


@dataclass(frozen=True)
class TestConfig:
    """Parameters shared by the simulation-backed operations."""

    __test__ = False  # not a test case, despite the name

    order: EntropyOrder = DEFAULT_ORDER
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


def _t_parts(
    totals: np.ndarray, means: np.ndarray, gamma: float, delta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Estimates, plug-ins -2 * log(gamma / mean) / delta and T of samples
    from their gap sums and means, one array element per sample.

    The logs and exponentials are math.log and math.exp mapped over the
    arrays: np.log / np.exp differ from them in the last bit on some inputs,
    and the simulated tables keep these bits.  The arithmetic in between is
    numpy's, the same IEEE operations in the same order as on Python floats.
    """
    estimate = _log_gap_sum(totals) / delta
    plug_in = -2.0 * (math.log(gamma) - _mapped(math.log, means)) / delta
    return estimate, plug_in, _mapped(math.exp, -abs(estimate - plug_in))


def statistic(
    s: Sample,
    order: EntropyOrder | None = None,
    variant: EstimatorVariant = EstimatorVariant.GAPS_ONLY,
) -> TestStatistic:
    """Evaluate the exponentiality statistic on a sample."""
    if order is None:
        order = DEFAULT_ORDER
    if s.n < 2:
        raise GwentropyError("statistic needs at least 2 observations")
    mean = s.values.mean()
    total = _gap_sums(s.values, order.gamma, True, variant is EstimatorVariant.FULL_STEP)
    estimate, plug_in, t = (v.item() for v in _t_parts(total[None], mean[None], order.gamma, order.delta))
    return TestStatistic(
        lambda_hat=1.0 / float(mean),
        estimate=estimate,
        plug_in=plug_in,
        distance=abs(estimate - plug_in),
        t_value=t,
    )


# ---------- replication engine ----------


def _replicate(d: Distribution, tag: int, cfg: TestConfig, n: int, start: int, stop: int) -> np.ndarray:
    """T for replications [start, stop) of size-n samples drawn from d."""
    gamma, delta = cfg.order.gamma, cfg.order.delta
    include_head = cfg.variant is EstimatorVariant.FULL_STEP
    prefix = np.uint64((tag << 56) | (n << 32))
    rows = max(1, _BLOCK_VALUES // n)
    out = np.empty(stop - start)
    for lo in range(start, stop, rows):
        hi = min(lo + rows, stop)
        x = d._sample_streams(cfg.seed, prefix | np.arange(lo, hi, dtype=np.uint64), n)
        x.sort(axis=1)
        out[lo - start : hi - start] = _t_parts(_gap_sums(x, gamma, True, include_head), x.mean(axis=1), gamma, delta)[2]
        del x  # before the next block's draw, not after it
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
    levels); workers is accepted and ignored.
    """
    cfg = cfg or TestConfig()
    levels = tuple(float(v) for v in levels)
    if not levels or any(not 0.0 < v < 1.0 for v in levels):
        raise GwentropyError("levels must lie strictly inside (0, 1)")
    rows: dict[int, tuple[float, ...]] = {}
    for n in _sample_sizes(n_values):
        t = _replicate(Exponential(1.0), _TAG_NULL, cfg, n, 0, cfg.replications)
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
    table is supplied one is simulated under cfg first.  workers is
    accepted and ignored.
    """
    cfg = cfg or TestConfig()
    levels = tuple(float(v) for v in levels)
    ns = _sample_sizes(n_values)
    if table is None:
        table = critical_values(ns, levels, cfg)
    results = []
    for n in ns:
        t = _replicate(alt, _TAG_ALT, cfg, n, 0, cfg.replications)
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
