"""Command-line interface: output shapes, exit codes, file handling."""

import json
import math
import subprocess
import sys

import pytest

from gwentropy import EntropyOrder, CriticalTable, TestConfig, critical_values, gwse, gdwse
from gwentropy.cli import main
from gwentropy.distributions import Exponential, SeededSampler, from_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------- scalar commands ----------


def test_entropy_json_matches_library(capsys):
    code, out, err = run_cli(capsys, "entropy", "--dist", "exp(1)", "--alpha", "0.26", "--beta", "1.25")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["measure"] == "gwse"
    ref = float(gwse(Exponential(1.0), EntropyOrder(0.26, 1.25)))
    assert doc["value"] == pytest.approx(ref, rel=1e-12)
    assert doc["gamma"] == pytest.approx(0.51)


def test_entropy_table_format(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--dist", "uniform(0,2)", "--measure", "gse", "--format", "table")
    assert code == 0
    assert out.startswith("gse(uniform(0,2)) = ")


def test_entropy_method_quadrature(capsys):
    code_a, out_a, _ = run_cli(capsys, "entropy", "--dist", "weibull(1.7)")
    code_b, out_b, _ = run_cli(capsys, "entropy", "--dist", "weibull(1.7)", "--method", "quadrature")
    assert code_a == code_b == 0
    va = json.loads(out_a)["value"]
    vb = json.loads(out_b)["value"]
    assert va == pytest.approx(vb, rel=1e-8)


def test_dynamic_json(capsys):
    code, out, _ = run_cli(capsys, "dynamic", "--dist", "exp(1)", "--t", "0.7")
    assert code == 0
    doc = json.loads(out)
    ref = float(gdwse(Exponential(1.0), EntropyOrder(0.26, 1.25), 0.7))
    assert doc["value"] == pytest.approx(ref, rel=1e-12)
    assert doc["t"] == 0.7


# ---------- empirical and gof from files ----------


def write_values(tmp_path, name, values, header=None):
    p = tmp_path / name
    if header:
        lines = [header] + [str(v) for v in values]
    else:
        lines = [" ".join(str(v) for v in values)]
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def test_empirical_from_plain_file(capsys, tmp_path):
    path = write_values(tmp_path, "x.txt", [0.5, 1.0, 1.5, 3.0])
    code, out, _ = run_cli(capsys, "empirical", "--data", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4 and doc["measure"] == "gwse"
    assert math.isfinite(doc["value"])


def test_empirical_from_csv_column(capsys, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("id,life\n1,0.5\n2,1.0\n3,2.5\n")
    code, out, _ = run_cli(capsys, "empirical", "--data", str(p), "--column", "life")
    assert code == 0
    assert json.loads(out)["n"] == 3


def test_empirical_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("0.5 1.0 2.0 4.0\n"))
    code, out, _ = run_cli(capsys, "empirical", "--data", "-")
    assert code == 0
    assert json.loads(out)["n"] == 4


def test_gof_test_json(capsys, tmp_path):
    rng = SeededSampler(1, 0).generator()
    values = Exponential(1.0).sample_values(20, rng)
    path = write_values(tmp_path, "x.txt", values)
    code, out, _ = run_cli(capsys, "gof-test", "--data", path, "--replications", "500", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 20
    assert 0.0 < doc["critical_value"] < 1.0
    assert doc["reject"] in (True, False)
    assert doc["table_simulated"] is True


def test_gof_test_with_table_file(capsys, tmp_path):
    cfg = TestConfig(replications=500, seed=7)
    table = critical_values([20], cfg=cfg)
    tp = tmp_path / "table.json"
    tp.write_text(table.to_json())
    rng = SeededSampler(1, 0).generator()
    path = write_values(tmp_path, "x.txt", Exponential(1.0).sample_values(20, rng))
    code, out, _ = run_cli(
        capsys, "gof-test", "--data", path, "--table", str(tp),
        "--replications", "500", "--seed", "7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["table_simulated"] is False
    assert doc["critical_value"] == table.value(20, 0.05)


def test_gof_test_no_simulate_missing_entry(capsys, tmp_path):
    cfg = TestConfig(replications=200, seed=7)
    table = critical_values([10], cfg=cfg)
    tp = tmp_path / "table.json"
    tp.write_text(table.to_json())
    rng = SeededSampler(1, 0).generator()
    path = write_values(tmp_path, "x.txt", Exponential(1.0).sample_values(20, rng))
    code, out, err = run_cli(
        capsys, "gof-test", "--data", path, "--table", str(tp), "--no-simulate",
    )
    assert code == 1
    assert json.loads(err)["error"] == "missing-table-entry"


# ---------- table and power commands ----------


def test_critical_table_json_to_file(capsys, tmp_path):
    out_path = tmp_path / "t.json"
    code, out, _ = run_cli(
        capsys, "critical-table", "--n", "5,10", "--replications", "300",
        "--seed", "2", "--out", str(out_path),
    )
    assert code == 0 and out == ""
    table = CriticalTable.from_json(out_path.read_text())
    cfg = TestConfig(replications=300, seed=2)
    assert table == critical_values([5, 10], cfg=cfg)


def test_critical_table_range_syntax(capsys):
    code, out, _ = run_cli(
        capsys, "critical-table", "--n", "4:8,10:14:2", "--levels", "0.05",
        "--replications", "100", "--format", "csv",
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n,level,value"
    ns = [int(r.split(",")[0]) for r in rows[1:]]
    assert ns == [4, 5, 6, 7, 8, 10, 12, 14]


def test_power_csv(capsys):
    code, out, _ = run_cli(
        capsys, "power", "--alt", "weibull(3)", "--n", "10", "--levels", "0.05",
        "--replications", "200", "--seed", "4", "--format", "csv",
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n,level,critical_value,power,rejections,replications"
    assert len(rows) == 2
    power = float(rows[1].split(",")[3])
    assert 0.0 <= power <= 1.0


def test_power_json_uses_table(capsys, tmp_path):
    cfg = TestConfig(replications=200, seed=4)
    table = critical_values([10], cfg=cfg)
    tp = tmp_path / "table.json"
    tp.write_text(table.to_json())
    code, out, _ = run_cli(
        capsys, "power", "--alt", "weibull(3)", "--n", "10", "--levels", "0.05",
        "--replications", "200", "--seed", "4", "--table", str(tp),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["critical_value"] == table.value(10, 0.05)


def test_verify_table_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--draws", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16
    assert all(line.startswith("pass") for line in lines)


def test_verify_json_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--draws", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and len(doc["cells"]) == 16


# ---------- exit codes and errors ----------


def test_usage_error_bad_distribution():
    with pytest.raises(SystemExit) as exc:
        main(["entropy", "--dist", "banana(1)"])
    assert exc.value.code == 2


def test_usage_error_bad_range():
    with pytest.raises(SystemExit) as exc:
        main(["critical-table", "--n", "10:4"])
    assert exc.value.code == 2


def test_usage_error_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["critical-table", "--n", "5", "-B", "0"],
        ["power", "--alt", "weibull(2)", "--n", "5", "--replications", "-3"],
        ["gof-test", "--data", "x.txt", "-B", "0"],
        ["verify", "--draws", "0"],
    ],
)
def test_usage_error_nonpositive_count(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        '{"schema": 1, "kind": "critical-table"}',
        '{"schema": 1, "kind": "critical-table", "order": {"alpha": 0.26, "beta": 1.25},'
        ' "levels": [0.05], "replications": "many", "seed": 0, "variant": "gaps-only",'
        ' "rows": [{"n": 20, "values": [0.3]}]}',
        '{"schema": 1, "kind": "critical-table", "order": {"alpha": 0.26, "beta": 1.25},'
        ' "levels": [0.05], "replications": 10, "seed": 0, "variant": "gaps-only",'
        ' "rows": [{"n": 20, "values": 0.3}]}',
        "[1, 2]",
    ],
)
def test_domain_error_malformed_table(text, capsys, tmp_path):
    tp = tmp_path / "table.json"
    tp.write_text(text)
    path = write_values(tmp_path, "x.txt", [0.3, 1.2, 0.7, 2.5, 0.1])
    code, out, err = run_cli(capsys, "gof-test", "--data", path, "--table", str(tp))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "domain"


def test_domain_error_divergence(capsys):
    code, out, err = run_cli(capsys, "entropy", "--dist", "pareto(3,1)")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "divergence"
    assert "diverge" in doc["message"].lower()


def test_domain_error_invalid_order(capsys):
    code, _, err = run_cli(capsys, "entropy", "--dist", "exp(1)", "--alpha", "2.0", "--beta", "1.25")
    assert code == 1
    assert json.loads(err)["error"] == "domain"


def test_domain_error_degenerate_sample(capsys, tmp_path):
    path = write_values(tmp_path, "x.txt", [2.0, 2.0, 2.0])
    code, _, err = run_cli(capsys, "empirical", "--data", path)
    assert code == 1
    assert json.loads(err)["error"] == "degenerate-sample"


def test_seed_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("GWENTROPY_SEED", "33")
    code, out, _ = run_cli(
        capsys, "critical-table", "--n", "5", "--levels", "0.05",
        "--replications", "100",
    )
    assert code == 0
    assert json.loads(out)["seed"] == 33
    # explicit flag wins
    code, out, _ = run_cli(
        capsys, "critical-table", "--n", "5", "--levels", "0.05",
        "--replications", "100", "--seed", "44",
    )
    assert json.loads(out)["seed"] == 44


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gwentropy", "entropy", "--dist", "exp(1)"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        # fall back to the installed script if module execution is unavailable
        proc = subprocess.run(
            ["gwentropy", "entropy", "--dist", "exp(1)"], capture_output=True, text=True
        )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["measure"] == "gwse"


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
