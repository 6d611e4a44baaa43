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
Replication r at size n draws from the stream _random.stream_words(tag, n, r),
so every replication is a pure function of (seed, tag, n, r).  That layout
holds sample sizes n < 2**24 and at most 2**32 replications; larger ones
raise GwentropyError before any draw.  _replicate takes the replications in
blocks of about empirical._BLOCK_VALUES = 32 768 values (rows x n), which
bounds its memory at any n and B, draws each block with
Distribution._sample_streams (the values empirical.sample draws too), and
reduces it row-wise by the kernel shared with statistic and the empirical
estimators, empirical._gap_sums, on the survival side only.

The test uses only the order of T: a critical value is the
ceil(level * B)-th smallest T, a power the share of T below a critical
value, and T = exp(-distance) falls as the distance |estimate - plug_in|
grows.  So _replicate keeps each replication's gap sum and mean, and from
them one distance with np.log in place of math.log and a scale that bounds
its terms; np.log rounds apart from math.log by a few ulp of that scale at
most.  A critical value partitions the distances, and a power counts those
beyond -log(cv).  Only the replications within _BAND times the scale of
that cut are finished by statistic's scalar formula _t_parts (math.log and
math.exp on Python floats) from their kept sum and mean, whose exact T
decides their side; a cut past _NORMAL_T_DISTANCE, where T nears the
subnormals, finishes every row beyond it.  Every critical value and power
count is thus the one that sorting every exact T gives, from one pass that
draws each replication once.
The engine runs in the calling process; the workers argument of
critical_values is accepted and ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _random
from .distributions import Distribution, Exponential
from .empirical import _BLOCK_VALUES, EstimatorVariant, Sample, _finite, _gap_sums, _head, _log_gap_sum
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
        if not 1 <= self.replications <= _random.B_LIMIT:
            raise GwentropyError(f"replications must lie in 1..{_random.B_LIMIT}, the stream layout's range")


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


def _t_parts(total: float, mean: float, gamma: float, delta: float) -> tuple[float, float, float]:
    """Estimate, plug-in -2 * log(gamma / mean) / delta and T of one sample
    from its gap sum and mean.

    The one place T is formed exactly: math.log and math.exp on Python
    floats, whose bits the simulated tables keep (np.log and np.exp round
    apart from them on some inputs).
    """
    estimate = _log_gap_sum(total) / delta
    plug_in = -2.0 * (math.log(gamma) - math.log(mean)) / delta
    return estimate, plug_in, math.exp(-abs(estimate - plug_in))


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
    total = s._gap_sum(order.gamma, True, variant is EstimatorVariant.FULL_STEP)  # before the mean: raises on overflow
    mean = float(s.values.mean())
    estimate, plug_in, t = _t_parts(total, mean, order.gamma, order.delta)
    return TestStatistic(
        lambda_hat=1.0 / mean,
        estimate=estimate,
        plug_in=plug_in,
        distance=abs(estimate - plug_in),
        t_value=t,
    )


# ---------- replication engine ----------

# Half-width of the band around a cut, per unit of the distances' scale.
# With np.log within a few ulp of math.log, a numpy distance lies within
# about 7 * 2**-52 = 1.6e-15 of the scale of the exact one (at most 1.6e-16
# seen).  The band holds three margins of 2**-40 / 3 = 3.0e-13: the row's
# rounding, the cut's, and a gap of over a thousand ulp between the exact T
# of the rows past the band and those at the cut
_BAND = 2.0**-40
# beyond this distance exp(-distance) nears the subnormals, where values a
# band apart may round to the same T: a cut there finishes every row beyond it
_NORMAL_T_DISTANCE = 700.0


def _distances(totals: np.ndarray, means: np.ndarray, order: EntropyOrder) -> tuple[np.ndarray, float]:
    """|estimate - plug_in| of each row, with np.log in place of math.log,
    and the scale that bounds their rounding: 1 + 4 |log gamma| / delta plus
    the largest finite |estimate| + |plug_in|.  totals and means are left as
    they are; a gap sum that is not positive raises DegenerateSampleError,
    as statistic does on that row."""
    log_gamma, delta = float(np.log(order.gamma)), order.delta
    _log_gap_sum(float(totals.min()))
    estimate = np.log(totals)
    estimate /= delta
    plug_in = np.log(means)
    np.subtract(log_gamma, plug_in, out=plug_in)
    plug_in *= -2.0
    plug_in /= delta
    dist = np.subtract(estimate, plug_in)
    np.abs(dist, out=dist)
    size = np.abs(estimate, out=estimate)
    size += np.abs(plug_in, out=plug_in)
    del plug_in  # before the finite mask: at most five arrays of the rows at once
    return dist, 1.0 + 4.0 * abs(log_gamma) / delta + float(size.max(initial=0.0, where=np.isfinite(size)))


def _replicate(
    d: Distribution, tag: int, cfg: TestConfig, n: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Gap sums and means of replications [start, stop) of size-n samples
    drawn from d, each drawn once, and their distances and scale from
    _distances; DegenerateSampleError where a gap sum is not finite, as
    statistic raises on that row."""
    full = cfg.variant is EstimatorVariant.FULL_STEP
    rows = max(1, _BLOCK_VALUES // n)
    totals, means = np.empty(stop - start), np.empty(stop - start)
    for lo in range(start, stop, rows):
        hi = min(lo + rows, stop)
        x = d._sample_streams(cfg.seed, _random.stream_words(tag, n, np.arange(lo, hi)), n)
        x.sort(axis=1)
        total, mean = totals[lo - start : hi - start], means[lo - start : hi - start]
        with np.errstate(over="ignore", invalid="ignore"):
            total[:] = _gap_sums(x, cfg.order.gamma, (True,))[0]  # the survival side only
            if full:
                total += _head(x)
            x.mean(axis=1, out=mean)
        _finite(float(total.max()))  # NaN and inf reach the max; a finite sum bounds the squares, and so the mean
        del x  # before the next block's draw, not after it
    return (totals, means, *_distances(totals, means, cfg.order))


def _band(dist: np.ndarray, scale: float, cut: float) -> tuple[int, np.ndarray]:
    """How many replications lie surely beyond the cut distance (exact T
    below exp(-cut)), and the indices of those near it, whose exact T decides."""
    width = _BAND * (scale + abs(cut))
    hi = cut + width if cut + width <= _NORMAL_T_DISTANCE else math.inf
    near = (dist >= min(cut, _NORMAL_T_DISTANCE) - width) & (dist <= hi)
    return int(np.count_nonzero(dist > hi)), np.flatnonzero(near)


def _t_rows(totals: np.ndarray, means: np.ndarray, order: EntropyOrder, rows: np.ndarray) -> list[float]:
    """Exact T of replications `rows` from their kept gap sums and means, by
    the scalar formula: the T that statistic gives on each sample."""
    return [_t_parts(t, m, order.gamma, order.delta)[2] for t, m in zip(totals[rows].tolist(), means[rows].tolist())]


def _ranked(d: Distribution, tag: int, cfg: TestConfig, n: int, ranks) -> list[float]:
    """The k-th smallest T of cfg.replications size-n samples from d, for each k in ranks."""
    totals, means, dist, scale = _replicate(d, tag, cfg, n, 0, cfg.replications)
    # the k-th smallest T is exp of the k-th smallest -distance (NaN last in both)
    log_t = np.negative(dist)
    log_t.partition([k - 1 for k in ranks])  # in place: no second copy beside the kept sums
    bands = [_band(dist, scale, -log_t[k - 1]) for k in ranks]
    return [sorted(_t_rows(totals, means, cfg.order, near))[k - 1 - beyond] for k, (beyond, near) in zip(ranks, bands)]


def _counts_below(d: Distribution, tag: int, cfg: TestConfig, n: int, cvs) -> list[int]:
    """How many of cfg.replications size-n samples from d have T < cv, for each cv in cvs."""
    totals, means, dist, scale = _replicate(d, tag, cfg, n, 0, cfg.replications)
    # T lies in [0, 1]: a cv above 1 cuts where 2 does, and none lies below a
    # cv that is not positive (or NaN)
    nowhere = (0, np.empty(0, dtype=np.intp))
    bands = [_band(dist, scale, -float(np.log(min(cv, 2.0)))) if cv > 0.0 else nowhere for cv in cvs]
    return [beyond + sum(t < cv for t in _t_rows(totals, means, cfg.order, near)) for cv, (beyond, near) in zip(cvs, bands)]


def _sample_sizes(n_values) -> list[int]:
    """Sorted distinct sample sizes, each at least 2 and below the stream layout's limit."""
    ns = sorted(set(int(n) for n in n_values))
    if not ns:
        raise GwentropyError("n_values must be non-empty")
    if ns[0] < 2:
        raise GwentropyError("sample sizes must be at least 2")
    if ns[-1] >= _random.N_LIMIT:
        raise GwentropyError(f"sample sizes must be below {_random.N_LIMIT}, the stream layout's limit")
    return ns


def _rank(level: float, b: int) -> int:
    """ceil(level * b), clamped to 1..b: the rank of a level's critical value."""
    return min(max(math.ceil(level * b - 1e-9), 1), b)


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

    def __post_init__(self):
        if any(not 0.0 < lv < 1.0 for lv in self.levels):
            raise GwentropyError("critical-table levels must lie strictly inside (0, 1)")
        if self.replications < 1:
            raise GwentropyError("critical-table replications must be positive")
        for n, values in self.rows.items():
            if n < 2:
                raise GwentropyError(f"critical-table row n={n}: sample sizes must be at least 2")
            if len(values) != len(self.levels):
                raise GwentropyError(f"critical-table row n={n}: row length differs from levels")
            if not all(0.0 <= v <= 1.0 for v in values):  # NaN fails too
                raise GwentropyError(f"critical-table row n={n}: values must lie in [0, 1]")

    def _check_config(self, cfg: TestConfig) -> None:
        """Raise GwentropyError unless the table was simulated at cfg's order
        and variant; its replications and seed may differ."""
        if self.order != cfg.order or self.variant is not cfg.variant:
            raise GwentropyError(
                f"critical table simulated at order ({self.order.alpha:g}, {self.order.beta:g}), {self.variant.value};"
                f" the test runs at ({cfg.order.alpha:g}, {cfg.order.beta:g}), {cfg.variant.value}"
            )

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
            fields = dict(
                order=EntropyOrder(doc["order"]["alpha"], doc["order"]["beta"]),
                levels=tuple(float(v) for v in doc["levels"]),
                rows={int(row["n"]): tuple(float(v) for v in row["values"]) for row in doc["rows"]},
                replications=int(doc["replications"]),
                seed=int(doc["seed"]),
                variant=EstimatorVariant(doc["variant"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GwentropyError(f"malformed critical-table document: {exc!r}") from exc
        return cls(**fields)

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
    ranks = [_rank(lv, cfg.replications) for lv in levels]
    for n in _sample_sizes(n_values):
        rows[n] = tuple(_ranked(Exponential(1.0), _TAG_NULL, cfg, n, ranks))
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
    if table is not None:
        table._check_config(cfg)
    stat = statistic(s, cfg.order, cfg.variant)
    n = s.n
    try:
        if table is None:
            raise MissingTableEntryError("no table supplied and simulation disabled")
        cv, simulated = table.value(n, cfg.level), False
    except MissingTableEntryError:
        if not simulate_missing:
            raise
        cv, simulated = critical_values([n], (cfg.level,), cfg).value(n, cfg.level), True
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
        table = critical_values(ns, levels, cfg)
    table._check_config(cfg)
    results = []
    for n in ns:
        cvs = [table.value(n, level) for level in levels]
        for level, cv, count in zip(levels, cvs, _counts_below(alt, _TAG_ALT, cfg, n, cvs)):
            results.append(
                PowerResult(n=n, level=level, critical_value=cv, replications=cfg.replications, rejections=count)
            )
    return results
