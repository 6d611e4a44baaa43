"""Dual-route self-check harness."""

import pytest

from gwentropy.cli import main
from gwentropy.distributions import Pareto
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
    with pytest.raises(ValueError):
        run_closed_form_suite(draws=0)


def test_suite_checks_the_families_own_closed_forms(monkeypatch, capsys):
    # a 1% error in Pareto's closed form must fail exactly the Pareto cells
    closed = Pareto._survival_closed
    monkeypatch.setattr(Pareto, "_survival_closed", lambda self, g, t, w: 1.01 * closed(self, g, t, w))
    cells = run_closed_form_suite(draws=3, seed=20240)
    bad = [c.name for c in cells if not c.ok]
    assert bad == ["gwse/pareto", "gwse/pareto-sf-power", "gwse/pareto-scaled"]
    assert main(["verify", "--draws", "3"]) == 1
    assert "FAIL  gwse/pareto " in capsys.readouterr().out
