"""Reference values the benchmark checks the program's outputs against.

Everything here is written from the textbook definitions and shares no code
with gwentropy, so a change to the package cannot move its own oracle.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

# Default order of the paper and of the acceptance suite: gamma = 0.51, delta = 0.99.
ALPHA, BETA = 0.26, 1.25
GAMMA = ALPHA + BETA - 1.0
DELTA = BETA - ALPHA
LEVELS = (0.01, 0.05, 0.10)
B = 10_000

# Frozen acceptance reference (tests/test_acceptance.py): critical values at
# levels LEVELS, simulated independently at B = 10000.  The two n = 25 cells
# at 0.05 and 0.10 are internally inconsistent in the source and excluded.
REFERENCE_CRITICAL_VALUES = {
    4: (0.07666, 0.13727, 0.16981),
    5: (0.12145, 0.17263, 0.20185),
    6: (0.14906, 0.19960, 0.22662),
    7: (0.16893, 0.21810, 0.24337),
    8: (0.19024, 0.23468, 0.26113),
    9: (0.20317, 0.24861, 0.27558),
    10: (0.21687, 0.26026, 0.28849),
    11: (0.22709, 0.27192, 0.30025),
    12: (0.23581, 0.28305, 0.31134),
    13: (0.24587, 0.28878, 0.31884),
    14: (0.25436, 0.29767, 0.32693),
    15: (0.26067, 0.30454, 0.33363),
    16: (0.26468, 0.31550, 0.34597),
    17: (0.27219, 0.32203, 0.35480),
    18: (0.28200, 0.33075, 0.36135),
    19: (0.28674, 0.33222, 0.36592),
    20: (0.28955, 0.33686, 0.36894),
    21: (0.29881, 0.34701, 0.37865),
    22: (0.30434, 0.35431, 0.38425),
    23: (0.30909, 0.35696, 0.39035),
    24: (0.31098, 0.36215, 0.39297),
    25: (0.31807, 0.21810, 0.37008),
    26: (0.32124, 0.37164, 0.40463),
    27: (0.32314, 0.37540, 0.40856),
    28: (0.32846, 0.37966, 0.41360),
    29: (0.33505, 0.38617, 0.41831),
    30: (0.34131, 0.38831, 0.42192),
    35: (0.35224, 0.40191, 0.43525),
    40: (0.37268, 0.42064, 0.45580),
    45: (0.38505, 0.43506, 0.47251),
    50: (0.39104, 0.44952, 0.48579),
    60: (0.41437, 0.47008, 0.50450),
    70: (0.43474, 0.48912, 0.52189),
    80: (0.44990, 0.50518, 0.54231),
    90: (0.46394, 0.51954, 0.55417),
    100: (0.47300, 0.52891, 0.56268),
}
EXCLUDED_CELLS = {(25, 0.05), (25, 0.10)}
TABLE_TOL = 0.015

# Frozen acceptance power anchors: (family, n, level) -> rejection rate at the
# reference critical values, B = 10000.
POWER_ANCHORS = {("weibull2", 10, 0.05): 0.6981, ("gamma5", 15, 0.01): 0.8233}
POWER_TOL = 0.02

INTEGRAL_RTOL = 1e-8
ESTIMATOR_RTOL = 1e-12


def _upper_gamma(s: float, x: float) -> float:
    """Non-normalized upper incomplete gamma function Gamma(s, x)."""
    return float(special.gammaincc(s, x) * special.gamma(s))


# ---------- survival power integrals: int_t^inf w(x) (sf(x)/sf(t))**g dx ----------


def weibull_survival(k: float, g: float, t: float, weighted: bool) -> float:
    """Weibull(k), sf = exp(-x**k): substitute u = g * x**k."""
    s = (2.0 if weighted else 1.0) / k
    a = g * t**k
    return math.exp(a) * _upper_gamma(s, a) / (k * g**s)


def gamma2_survival(g: float, t: float, weighted: bool) -> float:
    """Gamma(2), sf = (1 + x) exp(-x): substitute y = 1 + x."""
    a = g * (1.0 + t)
    scale = math.exp(a) * (1.0 + t) ** (-g)
    if not weighted:
        return scale * _upper_gamma(g + 1.0, a) / g ** (g + 1.0)
    return scale * (_upper_gamma(g + 2.0, a) / g ** (g + 2.0) - _upper_gamma(g + 1.0, a) / g ** (g + 1.0))


def exponential_survival(rate: float, g: float, weighted: bool) -> float:
    lg = rate * g
    return 1.0 / lg**2 if weighted else 1.0 / lg


def pareto_survival(shape: float, scale: float, g: float, weighted: bool) -> float:
    ag = shape * g
    return scale * scale / (ag - 2.0) if weighted else scale / (ag - 1.0)


def rayleigh_survival(rate: float, g: float, weighted: bool) -> float:
    lg = rate * g
    return 1.0 / (2.0 * lg) if weighted else math.sqrt(math.pi / (4.0 * lg))


def uniform0_survival(upper: float, g: float, weighted: bool) -> float:
    """Uniform(0, upper): int_0^u x ((u - x)/u)**g dx = u**2 / ((g+1)(g+2))."""
    return upper * upper / ((g + 1.0) * (g + 2.0)) if weighted else upper / (g + 1.0)


# ---------- failure power integrals: int_0^t w(x) (cdf(x)/cdf(t))**g dx ----------


def power_failure(shape: float, t: float, g: float, weighted: bool) -> float:
    """Power(c, upper) with t <= upper: cdf ratio is (x / t)**c."""
    cg = shape * g
    return t * t / (cg + 2.0) if weighted else t / (cg + 1.0)


def uniform0_failure(upper: float, g: float, weighted: bool) -> float:
    return upper * upper / (g + 2.0) if weighted else upper / (g + 1.0)


def rel_err(measure_value: float, integral: float) -> float:
    """Relative error on the integral scale, exp(delta * value) against the oracle."""
    return abs(math.exp(DELTA * measure_value) - integral) / abs(integral)


# ---------- estimator chain ----------


def gap_sums(x: np.ndarray) -> tuple[float, float, float]:
    """Survival gap sum, failure gap sum and mean, summed in extended precision.

    The weights are evaluated as the definition writes them, (1 - i/n)**gamma
    and (i/n)**gamma: at n = 10**7 the algebraically equal ((n - i)/n)**gamma
    rounds differently and moves the survival sum by up to 1e-12 relative.
    """
    xs = np.sort(x)
    n = xs.size
    half_gaps = np.diff(xs * xs) * 0.5
    i = np.arange(1, n, dtype=float)
    surv = np.sum(half_gaps * (1.0 - i / n) ** GAMMA, dtype=np.longdouble)
    fail = np.sum(half_gaps * (i / n) ** GAMMA, dtype=np.longdouble)
    mean = np.sum(xs, dtype=np.longdouble) / n
    return float(surv), float(fail), float(mean)


def exponential_gwse_truth() -> float:
    """gwse of Exponential(1) at the default order: log(1 / gamma**2) / delta."""
    return -2.0 * math.log(GAMMA) / DELTA
