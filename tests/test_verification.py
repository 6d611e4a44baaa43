"""Dual-route self-check harness."""

import math

import numpy as np
import pytest

from gwentropy.cli import main
from gwentropy.distributions import Affine, Pareto, ProportionalHazards, ProportionalReverseHazards
from gwentropy.errors import GwentropyError
from gwentropy.verification import CellResult, run_closed_form_suite


def test_cell_result_ok_logic():
    assert CellResult("x", 3, 1e-10, 1e-8).ok
    assert not CellResult("x", 3, 1e-7, 1e-8).ok


def test_suite_small_run_all_pass():
    cells = run_closed_form_suite(draws=3, seed=11, tol=1e-8)
    assert len(cells) == 16
    assert len({c.name for c in cells}) == 16
    for c in cells:
        assert c.draws == 3
        assert c.ok, f"{c.name}: {c.max_rel_err:.3e}"


def test_suite_is_seed_reproducible():
    a = run_closed_form_suite(draws=2, seed=5)
    b = run_closed_form_suite(draws=2, seed=5)
    assert [(c.name, c.max_rel_err) for c in a] == [(c.name, c.max_rel_err) for c in b]


def test_suite_covers_every_measure_kind():
    names = {c.name for c in run_closed_form_suite(draws=1, seed=1)}
    for prefix in ("gwse/", "gwfe/", "gdwse/", "wmrl/"):
        assert any(n.startswith(prefix) for n in names)


def test_suite_rejects_bad_arguments():
    for draws in (0, -1, 1.5, True, np.int64(0), "2"):
        with pytest.raises(GwentropyError, match="draws must be a positive integer"):
            run_closed_form_suite(draws=draws)
    assert {type(c.draws) for c in run_closed_form_suite(draws=np.int64(1))} == {int}
    for tol in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(GwentropyError, match="tol must be finite and positive"):
            run_closed_form_suite(draws=1, tol=tol)


@pytest.mark.parametrize(
    "seed",
    [
        20240, 1, 2, 3,
        # ROADMAP item 2: tanh-sinh misses REL_TOL on Pareto windows with
        # shape * g in [2.44, 2.58] (1.0e-8 and 1.2e-8 against the 1e-8 tol)
        pytest.param(103, marks=pytest.mark.xfail(strict=True, reason="quadrature floor below the smallest node")),
        pytest.param(144, marks=pytest.mark.xfail(strict=True, reason="quadrature floor below the smallest node")),
    ],
)
def test_full_suite_is_ok(seed):
    bad = [f"{c.name}: {c.max_rel_err:.3e}" for c in run_closed_form_suite(draws=20, seed=seed) if not c.ok]
    assert not bad


# (class, closed-form method, the cells a 1% error in it must fail): a
# family's closed form reaches the wrappers of that family too, and a
# wrapper's closed form is its delegation to the base
_MUTATIONS = [
    (Pareto, "_survival_closed", ["gwse/pareto", "gwse/pareto-sf-power", "gwse/pareto-scaled"]),
    (ProportionalHazards, "_survival_closed", ["gwse/exponential-sf-power", "gwse/pareto-sf-power"]),
    (ProportionalReverseHazards, "_failure_closed", ["gwfe/uniform-cdf-power", "gwfe/power-cdf-power"]),
    (Affine, "_from_base", ["gwse/exponential-scaled", "gwse/pareto-scaled", "gwfe/uniform-scaled", "gwfe/power-scaled"]),
]


def test_suite_checks_the_families_own_closed_forms(monkeypatch, capsys):
    for cls, name, cells in _MUTATIONS:
        with monkeypatch.context() as m:
            method = getattr(cls, name)
            m.setattr(cls, name, lambda self, *args, method=method: 1.01 * method(self, *args))
            bad = [c.name for c in run_closed_form_suite(draws=3, seed=20240) if not c.ok]
            assert bad == cells, cls.__name__
            assert main(["verify", "--draws", "3"]) == 1
            out = capsys.readouterr().out
            assert all(f"FAIL  {cell} " in out for cell in cells)
