"""Dual-route verification of the closed forms against quadrature.

Each cell draws random parameters for one (family, transform, measure)
combination, evaluates the underlying power integral once by quadrature
(``method="quadrature"``) and once through the family's own
closed form (``method="closed"``), the one users get, and records the worst
relative disagreement.  Transformed variables (power of the survival or
failure function, scalar multiples) are integrated through the wrapper
distributions on the quadrature side and reach their family by an exact
parameter reduction on the closed side, so no formula is written here.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .distributions import (
    Affine, Exponential as Exp, Pareto as Par, Power as Pow, ProportionalHazards as PH,
    ProportionalReverseHazards as PRH, Rayleigh, SeededSampler, Uniform as Uni,
)
from ._quad import failure_integral, survival_integral
from .entropy import EntropyOrder
from .errors import GwentropyError

__all__ = ["CellResult", "run_closed_form_suite"]


@dataclass(frozen=True)
class CellResult:
    """Worst relative error over the random draws of one suite cell."""

    name: str
    draws: int
    max_rel_err: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_rel_err <= self.tol


def _draw_order(rng: np.random.Generator) -> EntropyOrder:
    delta = rng.uniform(0.05, 0.95)
    gamma = rng.uniform(max(0.15, 1.0 - delta + 0.01), 2.5)
    return EntropyOrder((gamma + 1.0 - delta) / 2.0, (gamma + 1.0 + delta) / 2.0)


# parameter draws; tuple elements evaluate left to right, which fixes the draw order


def _exp_draw(rng):
    return rng.uniform(0.3, 3.0), rng.uniform(0.5, 2.5), _draw_order(rng).gamma


def _exp_t_draw(rng):
    lam, _, g = _exp_draw(rng)
    return lam, g, rng.uniform(0.0, 2.0 / lam)


def _rate_t_draw(rng):
    lam = rng.uniform(0.3, 3.0)
    return lam, rng.uniform(0.0, 2.0 / lam)


def _pareto_draw(rng):
    g = _draw_order(rng).gamma
    th = rng.uniform(0.5, 2.5)
    return 2.3 / (g * min(th, 1.0)) + rng.uniform(0.0, 2.0), rng.uniform(0.5, 2.0), th, g


def _unif_draw(rng):
    return rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.5), _draw_order(rng).gamma


def _power_draw(rng):
    return rng.uniform(0.4, 3.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.5), _draw_order(rng).gamma


# name -> (draw, params -> (side, distribution by quadrature, family by closed form, g, t));
# a wrapper reaches its family by an exact reduction of the parameters
_S, _F, _W = "survival", "failure", "wmrl"
_CELLS = {
    "gwse/exponential": (_exp_draw, lambda lam, th, g: (_S, Exp(lam), Exp(lam), g, 0.0)),
    "gwse/exponential-sf-power": (_exp_draw, lambda lam, th, g: (_S, PH(Exp(lam), th), Exp(lam * th), g, 0.0)),
    "gwse/exponential-scaled": (_exp_draw, lambda lam, th, g: (_S, Affine(Exp(lam), th), Exp(lam / th), g, 0.0)),
    "gwse/pareto": (_pareto_draw, lambda a, b, th, g: (_S, Par(a, b), Par(a, b), g, 0.0)),
    "gwse/pareto-sf-power": (_pareto_draw, lambda a, b, th, g: (_S, PH(Par(a, b), th), Par(a * th, b), g, 0.0)),
    "gwse/pareto-scaled": (_pareto_draw, lambda a, b, th, g: (_S, Affine(Par(a, b), th), Par(a, th * b), g, 0.0)),
    "gwse/rayleigh": (
        lambda rng: (rng.uniform(0.3, 3.0), _draw_order(rng).gamma),
        lambda lam, g: (_S, Rayleigh(lam), Rayleigh(lam), g, 0.0),
    ),
    "gwfe/uniform": (_unif_draw, lambda a, th, g: (_F, Uni(0.0, a), Uni(0.0, a), g, None)),
    "gwfe/uniform-cdf-power": (_unif_draw, lambda a, th, g: (_F, PRH(Uni(0.0, a), th), Pow(th, a), g, None)),
    "gwfe/uniform-scaled": (_unif_draw, lambda a, th, g: (_F, Affine(Uni(0.0, a), th), Uni(0.0, th * a), g, None)),
    "gwfe/power": (_power_draw, lambda c, b, th, g: (_F, Pow(c, b), Pow(c, b), g, None)),
    "gwfe/power-cdf-power": (_power_draw, lambda c, b, th, g: (_F, PRH(Pow(c, b), th), Pow(c * th, b), g, None)),
    "gwfe/power-scaled": (_power_draw, lambda c, b, th, g: (_F, Affine(Pow(c, b), th), Pow(c, th * b), g, None)),
    "gdwse/exponential": (_exp_t_draw, lambda lam, g, t: (_S, Exp(lam), Exp(lam), g, t)),
    "wmrl/exponential-at-0": (lambda rng: (rng.uniform(0.3, 3.0),), lambda lam: (_W, Exp(lam), Exp(lam), 1.0, 0.0)),
    "wmrl/exponential-at-t": (_rate_t_draw, lambda lam, t: (_W, Exp(lam), Exp(lam), 1.0, t)),
}


def _integral(side: str, d, g: float, t: float | None, method: str) -> float:
    if side == _W:
        return d.wmrl(t, method=method)
    integral = survival_integral if side == _S else failure_integral
    return integral(d, g, t, method)


def run_closed_form_suite(
    draws: int = 20,
    seed: int = 20240,
    tol: float = 1e-8,
) -> list[CellResult]:
    """Run every closed-form cell; a cell passes when all draws agree.

    Agreement is measured on the integral scale (the quantity inside the
    log), where relative error is well defined for values of either sign
    of the final measure.
    """
    if draws < 1:
        raise GwentropyError("draws must be at least 1")
    results = []
    for name, (draw, case) in _CELLS.items():
        rng = SeededSampler(seed, zlib.crc32(name.encode("ascii"))).generator()
        worst = 0.0
        for _ in range(draws):
            side, quad_d, closed_d, g, t = case(*draw(rng))
            quad = _integral(side, quad_d, g, t, "quadrature")
            closed = _integral(side, closed_d, g, t, "closed")
            worst = max(worst, abs(quad - closed) / abs(closed))
        results.append(CellResult(name=name, draws=draws, max_rel_err=worst, tol=tol))
    return results
