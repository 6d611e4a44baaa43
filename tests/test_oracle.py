"""Independent high-precision oracle for the power integrals.

The other quadrature checks compare the package with itself: a closed form
against the same window, on the same sf and inverse.  Here mpmath.quad
evaluates the defining integral of w(x) * (sf(x) / sf(t))**g over (t, inf),
w(x) = x or 1, at 30 digits, with sf written in mpmath (the regularized
upper incomplete gamma for Gamma).  Gamma and Weibull have no closed form,
so nothing else checks them independently.
"""

import mpmath
import pytest

from gwentropy._quad import REL_TOL, survival_integral
from gwentropy.distributions import Gamma, Pareto, Weibull


# the parameters enter mpmath as the exact binary values the package uses
def _gamma_sf(shape: float):
    return lambda x: mpmath.gammainc(shape, x, mpmath.inf, regularized=True)


def _weibull_sf(shape: float):
    return lambda x: mpmath.exp(-(x**shape))


def _reference(sf, g: float, t: float, weighted: bool) -> float:
    """The survival integral by mpmath at 30 digits."""
    with mpmath.workdps(30):
        g, t = mpmath.mpf(g), mpmath.mpf(t)
        at_t = sf(t)
        return float(mpmath.quad(lambda x: (x if weighted else 1) * (sf(x) / at_t) ** g, [t, mpmath.inf]))


@pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
@pytest.mark.parametrize(
    "d,sf,g,t",
    [
        (Gamma(2.0), _gamma_sf(2.0), 0.51, 0.0),
        (Gamma(5.0), _gamma_sf(5.0), 0.51, 1.5),
        (Gamma(0.3), _gamma_sf(0.3), 0.51, 0.0),
        (Gamma(2.0), _gamma_sf(2.0), 3.0, 0.0),
        (Weibull(2.0), _weibull_sf(2.0), 0.51, 0.0),
        (Weibull(0.4), _weibull_sf(0.4), 0.51, 0.0),
    ],
    ids=["gamma2", "gamma5-t1.5", "gamma0.3", "gamma2-g3", "weibull2", "weibull0.4"],
)
def test_survival_integral_matches_mpmath(d, sf, g, t, weighted):
    value = survival_integral(d, g, t, weighted=weighted)
    expected = _reference(sf, g, t, weighted)
    assert abs(value - expected) <= REL_TOL * expected


@pytest.mark.xfail(strict=True, reason="quadrature floor below the smallest node (ROADMAP item 1)")
def test_pareto_window_in_the_floor_band_matches_exact():
    # Pareto(s, 1) at g = 0.15 with s * g = 2.44, inside the band [2.44, 2.58]
    # where the rule stops short of the mass below its smallest node: the
    # weighted integral of x * x**(-s g) over (1, inf) is 1 / (s g - 2)
    s, g = 2.44 / 0.15, 0.15
    value = survival_integral(Pareto(s, 1.0), g, 0.0, "quadrature")
    with mpmath.workdps(30):
        expected = float(1 / (mpmath.mpf(s) * mpmath.mpf(g) - 2))
    assert abs(value - expected) <= REL_TOL * expected
