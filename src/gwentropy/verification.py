"""Dual-route verification of the closed forms against quadrature.

Each cell draws random parameters for one (family, transform, measure)
combination, evaluates the underlying power integral once through the
closed expression and once through adaptive quadrature, and records the
worst relative disagreement.  Transformed variables (power of the survival
or failure function, scalar multiples) are evaluated through the wrapper
distributions on the quadrature side and through parameter reduction on
the closed side, so the two routes share no code path.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from ._quad import DEFAULT_QUADRATURE, QuadratureConfig
from .entropy import EntropyOrder, _failure_integral, _survival_integral
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


def _rel(err_a: float, err_b: float) -> float:
    return abs(err_a - err_b) / abs(err_b)


def run_closed_form_suite(
    draws: int = 20,
    seed: int = 20240,
    tol: float = 1e-8,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> list[CellResult]:
    """Run every closed-form cell; a cell passes when all draws agree.

    Agreement is measured on the integral scale (the quantity inside the
    log), where relative error is well defined for values of either sign
    of the final measure.
    """
    if draws < 1:
        raise GwentropyError("draws must be at least 1")
    results = []

    def survival_quad(d, g, t=0.0):
        return _survival_integral(d, g, t, cfg, "quadrature")

    def failure_quad(d, g, t=None):
        return _failure_integral(d, g, t, cfg, "quadrature")

    def cell(name, one_draw):
        stream = zlib.crc32(name.encode("ascii"))
        rng = dist.SeededSampler(seed, stream).generator()
        worst = 0.0
        for _ in range(draws):
            worst = max(worst, one_draw(rng))
        results.append(CellResult(name=name, draws=draws, max_rel_err=worst, tol=tol))

    # ---- weighted survival measure: exponential ----

    def exp_params(rng):
        return rng.uniform(0.3, 3.0), rng.uniform(0.5, 2.5), _draw_order(rng)

    def c_exp_base(rng):
        lam, _, order = exp_params(rng)
        g = order.gamma
        return _rel(survival_quad(dist.Exponential(lam), g), 1.0 / (lam * g) ** 2)

    def c_exp_sf_power(rng):
        lam, th, order = exp_params(rng)
        g = order.gamma
        d = dist.ProportionalHazards(dist.Exponential(lam), th)
        return _rel(survival_quad(d, g), 1.0 / (lam * th * g) ** 2)

    def c_exp_scaled(rng):
        lam, th, order = exp_params(rng)
        g = order.gamma
        d = dist.Affine(dist.Exponential(lam), th)
        return _rel(survival_quad(d, g), th**2 / (lam * g) ** 2)

    cell("gwse/exponential", c_exp_base)
    cell("gwse/exponential-sf-power", c_exp_sf_power)
    cell("gwse/exponential-scaled", c_exp_scaled)

    # ---- weighted survival measure: pareto ----

    def pareto_params(rng):
        order = _draw_order(rng)
        th = rng.uniform(0.5, 2.5)
        g = order.gamma
        shape = (2.3 / (g * min(th, 1.0))) + rng.uniform(0.0, 2.0)
        scale = rng.uniform(0.5, 2.0)
        return shape, scale, th, order

    def c_pareto_base(rng):
        a, b, _, order = pareto_params(rng)
        g = order.gamma
        return _rel(survival_quad(dist.Pareto(a, b), g), b * b / (a * g - 2.0))

    def c_pareto_sf_power(rng):
        a, b, th, order = pareto_params(rng)
        g = order.gamma
        d = dist.ProportionalHazards(dist.Pareto(a, b), th)
        return _rel(survival_quad(d, g), b * b / (a * th * g - 2.0))

    def c_pareto_scaled(rng):
        a, b, th, order = pareto_params(rng)
        g = order.gamma
        d = dist.Affine(dist.Pareto(a, b), th)
        return _rel(survival_quad(d, g), (th * b) ** 2 / (a * g - 2.0))

    cell("gwse/pareto", c_pareto_base)
    cell("gwse/pareto-sf-power", c_pareto_sf_power)
    cell("gwse/pareto-scaled", c_pareto_scaled)

    # ---- weighted survival measure: rayleigh ----

    def c_rayleigh(rng):
        lam = rng.uniform(0.3, 3.0)
        order = _draw_order(rng)
        g = order.gamma
        return _rel(survival_quad(dist.Rayleigh(lam), g), 1.0 / (2.0 * lam * g))

    cell("gwse/rayleigh", c_rayleigh)

    # ---- weighted failure measure: uniform on [0, a] ----

    def unif_params(rng):
        return rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.5), _draw_order(rng)

    def c_unif_base(rng):
        a, _, order = unif_params(rng)
        g = order.gamma
        return _rel(failure_quad(dist.Uniform(0.0, a), g), a * a / (g + 2.0))

    def c_unif_cdf_power(rng):
        a, th, order = unif_params(rng)
        g = order.gamma
        d = dist.ProportionalReverseHazards(dist.Uniform(0.0, a), th)
        return _rel(failure_quad(d, g), a * a / (th * g + 2.0))

    def c_unif_scaled(rng):
        a, th, order = unif_params(rng)
        g = order.gamma
        d = dist.Affine(dist.Uniform(0.0, a), th)
        return _rel(failure_quad(d, g), (th * a) ** 2 / (g + 2.0))

    cell("gwfe/uniform", c_unif_base)
    cell("gwfe/uniform-cdf-power", c_unif_cdf_power)
    cell("gwfe/uniform-scaled", c_unif_scaled)

    # ---- weighted failure measure: power function ----

    def power_params(rng):
        return rng.uniform(0.4, 3.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.5), _draw_order(rng)

    def c_power_base(rng):
        c, b, _, order = power_params(rng)
        g = order.gamma
        return _rel(failure_quad(dist.Power(c, b), g), b * b / (c * g + 2.0))

    def c_power_cdf_power(rng):
        c, b, th, order = power_params(rng)
        g = order.gamma
        d = dist.ProportionalReverseHazards(dist.Power(c, b), th)
        return _rel(failure_quad(d, g), b * b / (c * th * g + 2.0))

    def c_power_scaled(rng):
        c, b, th, order = power_params(rng)
        g = order.gamma
        d = dist.Affine(dist.Power(c, b), th)
        return _rel(failure_quad(d, g), (th * b) ** 2 / (c * g + 2.0))

    cell("gwfe/power", c_power_base)
    cell("gwfe/power-cdf-power", c_power_cdf_power)
    cell("gwfe/power-scaled", c_power_scaled)

    # ---- dynamic measure and residual moments: exponential ----

    def c_exp_dynamic(rng):
        lam, _, order = exp_params(rng)
        g = order.gamma
        t = rng.uniform(0.0, 2.0 / lam)
        return _rel(survival_quad(dist.Exponential(lam), g, t), (1.0 + t * lam * g) / (lam * g) ** 2)

    def c_exp_wmrl0(rng):
        lam = rng.uniform(0.3, 3.0)
        d = dist.Exponential(lam)
        return _rel(d.wmrl(0.0, cfg, method="quadrature"), 1.0 / lam**2)

    def c_exp_wmrl_t(rng):
        lam = rng.uniform(0.3, 3.0)
        t = rng.uniform(0.0, 2.0 / lam)
        d = dist.Exponential(lam)
        return _rel(d.wmrl(t, cfg, method="quadrature"), (1.0 + t * lam) / lam**2)

    cell("gdwse/exponential", c_exp_dynamic)
    cell("wmrl/exponential-at-0", c_exp_wmrl0)
    cell("wmrl/exponential-at-t", c_exp_wmrl_t)

    return results
