"""Command-line interface: output shapes, exit codes, file handling."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwentropy
from gwentropy import EntropyOrder, CriticalTable, TestConfig, critical_values, gwse, gdwse
from gwentropy.cli import main
from gwentropy.distributions import Distribution, Exponential, SeededSampler, from_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _checkout_env():
    # a fresh interpreter imports this checkout's package, installed or not
    return {**os.environ, "PYTHONPATH": str(Path(gwentropy.__file__).resolve().parents[1])}


def _run_module(*argv, warnings_as_errors=False):
    flags = ["-W", "error"] if warnings_as_errors else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "gwentropy", *argv], capture_output=True, text=True, env=_checkout_env()
    )


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


@pytest.mark.parametrize("measure", ["gdwse", "gdwfe"])
def test_dynamic_nan_t_is_a_domain_error(measure, capsys):
    code, out, err = run_cli(capsys, "dynamic", "--dist", "gamma(2)", "--measure", measure, "--t", "nan")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "domain" and "NaN" in doc["message"]


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


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_verify_exits_1_when_a_cell_fails(fmt, capsys):
    # no draw's rounding error reaches below 1e-300, except an exact 0
    code, out, err = run_cli(capsys, "verify", "--draws", "1", "--tol", "1e-300", "--format", fmt)
    assert code == 1 and err == ""
    if fmt == "json":
        assert json.loads(out)["ok"] is False
    else:
        assert "FAIL  " in out and len(out.splitlines()) == 16


# ---------- every output path ----------

_OUTPUT_ARGV = {
    "entropy": ["--dist", "exp(1)"],
    "dynamic": ["--dist", "exp(1)", "--t", "0.7"],
    "empirical": ["--data", "x.txt"],
    "gof-test": ["--data", "x.txt", "-B", "100"],
    "critical-table": ["--n", "5,6", "--levels", "0.05", "-B", "100"],
    "power": ["--alt", "weibull(2)", "--n", "5", "--levels", "0.05", "-B", "100"],
    "verify": ["--draws", "1"],
}
_NUMBER = r"-?\d\.\d+(e[-+]\d+)?"
_OUTPUT_SHAPES = {  # the text's form, or the keys of its JSON document
    ("entropy", "json"): {"measure", "dist", "alpha", "beta", "gamma", "delta", "method", "value"},
    ("entropy", "table"): rf"gwse\(exp\(1\)\) = {_NUMBER}\n",
    ("dynamic", "json"): {"measure", "dist", "alpha", "beta", "t", "method", "value"},
    ("dynamic", "table"): rf"gdwse\(exp\(1\); t=0\.7\) = {_NUMBER}\n",
    ("empirical", "json"): {"measure", "n", "alpha", "beta", "variant", "value"},
    ("empirical", "table"): rf"empirical gwse \(n=5\) = {_NUMBER}\n",
    ("gof-test", "json"): {
        "n", "level", "critical_value", "t", "distance", "estimate", "plug_in", "lambda_hat", "reject", "table_simulated"
    },
    ("gof-test", "table"): r"T = 0\.\d{5}, critical value = 0\.\d{5} \(n=5, level=0\.05\): (accept|reject) exponentiality\n",
    ("critical-table", "json"): {"schema", "kind", "order", "levels", "replications", "seed", "variant", "rows"},
    ("critical-table", "csv"): r"n,level,value\n5,0\.05,0\.\d{5}\n6,0\.05,0\.\d{5}\n",
    ("power", "json"): {"alt", "replications", "seed", "results"},
    ("power", "csv"): r"n,level,critical_value,power,rejections,replications\n5,0\.05,0\.\d{5},[01]\.\d{4},\d+,100\n",
    ("verify", "table"): r"(pass  \S+ +max rel err \d\.\d{3}e[-+]\d\d\n){16}",
    ("verify", "json"): {"draws", "tol", "cells", "ok"},
}


@pytest.mark.parametrize(
    "command,fmt,to_file",
    [(c, f, to_file) for c, f in _OUTPUT_SHAPES for to_file in ([False, True] if c in ("critical-table", "power") else [False])],
)
def test_every_output_path_has_its_shape(command, fmt, to_file, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_values(tmp_path, "x.txt", [0.3, 1.2, 0.7, 2.5, 0.1])
    argv = [command, *_OUTPUT_ARGV[command], "--format", fmt] + (["--out", "out.txt"] if to_file else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    if to_file:
        assert out == ""
        out = (tmp_path / "out.txt").read_text()
    shape = _OUTPUT_SHAPES[command, fmt]
    if isinstance(shape, str):
        assert re.fullmatch(shape, out), out
    else:
        doc = json.loads(out)
        assert set(doc) == shape
        # sorted keys, but a critical table keeps CriticalTable.to_json()'s order, which --table reads
        assert out == json.dumps(doc, indent=2, sort_keys=command != "critical-table") + "\n"


# ---------- exit codes and errors ----------


def test_usage_error_bad_distribution():
    with pytest.raises(SystemExit) as exc:
        main(["entropy", "--dist", "banana(1)"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "spec",
    ["exp(inf)", "exp(1e400)", "exp(nan)", "uniform(0,inf)", "rayleigh(inf)", "gamma(inf)", "pareto(3,inf)",
     "power(2,inf)", "weibull(inf)"],
)
def test_usage_error_non_finite_parameter(spec, capsys):
    # pytest turns warnings into errors, so no RuntimeWarning precedes the usage message
    with pytest.raises(SystemExit) as exc:
        main(["entropy", "--dist", spec])
    assert exc.value.code == 2
    assert "must be finite" in capsys.readouterr().err


def test_usage_error_non_finite_parameter_under_warnings_as_errors():
    proc = _run_module("entropy", "--dist", "exp(inf)", warnings_as_errors=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage:") and "rate must be finite" in proc.stderr


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
    "argv",
    [
        ["gof-test", "--data", "x.txt", "--level", "1.5"],
        ["gof-test", "--data", "x.txt", "--level", "nan"],
        ["gof-test", "--data", "x.txt", "--level", "0"],
        ["critical-table", "--n", "5", "--levels", "1.5"],
    ],
)
def test_usage_error_level_out_of_range(argv, capsys):
    # --level is checked as --levels is: a usage error, not a domain error
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "strictly inside (0, 1)" in capsys.readouterr().err


def _no_draw(*args):
    raise AssertionError("drew past the stream layout's limits")


@pytest.mark.parametrize(
    "argv",
    [
        ["critical-table", "--n", "5000000000"],
        ["critical-table", "--n", "16777216"],
        ["power", "--alt", "weibull(2)", "--n", "4:16777221:16777217"],
        ["critical-table", "--n", "5", "-B", "4294967297"],
        ["gof-test", "--data", "x.txt", "-B", "4294967297"],
    ],
)
def test_usage_error_past_the_stream_layout(argv, capsys, monkeypatch):
    # n >= 2**24 aliased other streams and n >= 2**32 overflowed the stream
    # word; B > 2**32 would run r into n.  Nothing may be drawn
    monkeypatch.setattr(Distribution, "_sample_streams", _no_draw)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "stream layout" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "-inf", "tiny"])
def test_usage_error_bad_tol(tol, capsys):
    # a tolerance no draw can meet, or every draw meets, is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--draws", "1", "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


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


_TABLE_DOC = {
    "schema": 1, "kind": "critical-table", "order": {"alpha": 0.26, "beta": 1.25}, "levels": [0.05],
    "replications": 10, "seed": 0, "variant": "gaps-only", "rows": [{"n": 5, "values": [0.3]}],
}


def _table_command(command, tp, tmp_path):
    if command == "gof-test":
        return ["gof-test", "--data", write_values(tmp_path, "x.txt", [0.3, 1.2, 0.7, 2.5, 0.1]), "--table", str(tp)]
    return ["power", "--alt", "weibull(2)", "--n", "5", "--levels", "0.05", "--replications", "50", "--table", str(tp)]


@pytest.mark.parametrize("command", ["gof-test", "power"])
@pytest.mark.parametrize(
    "change",
    [
        {"rows": [{"n": 5, "values": [math.nan]}]},
        {"rows": [{"n": 5, "values": [7.5]}]},
        {"rows": [{"n": 5, "values": [-0.1]}]},
        {"rows": [{"n": 1, "values": [0.3]}]},
        {"replications": -3},
        {"levels": [1.0]},
    ],
    ids=["nan-value", "value-above-1", "negative-value", "n-1", "negative-replications", "level-1"],
)
def test_domain_error_impossible_table(command, change, capsys, tmp_path):
    # each loaded without error, and power printed a NaN critical value
    tp = tmp_path / "table.json"
    tp.write_text(json.dumps({**_TABLE_DOC, **change}))
    code, out, err = run_cli(capsys, *_table_command(command, tp, tmp_path))
    assert code == 1 and out == ""
    [line] = err.splitlines()
    assert json.loads(line)["error"] == "domain"


@pytest.mark.parametrize("command", ["gof-test", "power"])
@pytest.mark.parametrize(
    "flags", [["--alpha", "1.6", "--beta", "2.5"], ["--variant", "full-step"]], ids=["order", "variant"]
)
def test_domain_error_table_from_another_order_or_variant(command, flags, capsys, tmp_path):
    # a table simulated at the default order, gaps-only, gave gof-test at
    # (1.6, 2.5) full-step a critical value of 0.2531 where that order's is 0.4479
    tp = tmp_path / "table.json"
    tp.write_text(json.dumps(_TABLE_DOC))
    code, out, err = run_cli(capsys, *_table_command(command, tp, tmp_path), *flags)
    assert code == 1 and out == ""
    [line] = err.splitlines()
    doc = json.loads(line)
    assert doc["error"] == "domain" and "critical table simulated at order (0.26, 1.25), gaps-only" in doc["message"]


@pytest.mark.parametrize("command", ["gof-test", "power"])
def test_table_from_another_seed_and_replications_is_used(command, capsys, tmp_path):
    tp = tmp_path / "table.json"
    tp.write_text(json.dumps(_TABLE_DOC))
    code, out, err = run_cli(capsys, *_table_command(command, tp, tmp_path), "--seed", "9", "--replications", "40")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert (doc["results"][0] if command == "power" else doc)["critical_value"] == 0.3


def test_domain_error_divergence(capsys):
    code, out, err = run_cli(capsys, "entropy", "--dist", "pareto(3,1)")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "divergence"
    assert "diverge" in doc["message"].lower()


def test_domain_error_divergence_of_gdwfe_at_infinite_t(capsys):
    code, out, err = run_cli(capsys, "dynamic", "--dist", "gamma(2)", "--measure", "gdwfe", "--t", "inf")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "divergence", "message": "failure-side measure diverges on an infinite support"}


@pytest.mark.parametrize("spec", ["gamma(1e-300)", "uniform(0,1e-300)", "exp(4.5e206)", "exp(2.6e-240)"])
def test_domain_error_integral_outside_the_float_range(spec, capsys):
    code, out, err = run_cli(capsys, "entropy", "--dist", spec)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "domain"


def test_domain_error_near_zero_power_shape_under_warnings_as_errors():
    # Power(1e-300, 1) puts its whole mass at 0, where the density is inf:
    # the quadrature reads it there without a warning and the integral then
    # fails its range check, so -W error still ends in one JSON line
    proc = _run_module("entropy", "--dist", "power(1e-300,1)", warnings_as_errors=True)
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "domain"


@pytest.mark.parametrize(
    "argv", ["--alt pareto(0.01,1) --n 2 -B 50 --seed 1", "--alt weibull(0.004) --n 20 -B 200"], ids=["pareto", "weibull"]
)
def test_power_whose_draws_overflow_their_squares_is_a_degenerate_sample(argv):
    # two of pareto(0.01,1)'s 50 replications have gap sums of +inf, which the
    # engine once counted as rejections (T = 0) after an overflow warning;
    # weibull(0.004)'s meet inf - inf, once reported as a zero integral
    proc = _run_module("power", *argv.split(), warnings_as_errors=True)
    assert proc.returncode == 1 and proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert json.loads(line) == {
        "error": "degenerate-sample", "message": "empirical integral is not finite; the sample's squares overflow"
    }


@pytest.mark.parametrize("command", [["empirical"], ["gof-test", "--replications", "100"]])
def test_overflowing_sample_is_one_json_line_under_warnings_as_errors(command, tmp_path):
    # squares of 1e200 overflow: one JSON line and exit 1, not an inf estimate
    path = write_values(tmp_path, "x.txt", [0.0, 1.0, 1e200])
    proc = _run_module(*command, "--data", path, warnings_as_errors=True)
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "degenerate-sample"


def test_domain_error_invalid_order(capsys):
    code, _, err = run_cli(capsys, "entropy", "--dist", "exp(1)", "--alpha", "2.0", "--beta", "1.25")
    assert code == 1
    assert json.loads(err)["error"] == "domain"


def test_domain_error_order_whose_gamma_rounds_to_zero(capsys):
    # alpha = 5e-324 lies above beta - 1 = 0, but gamma = alpha + beta - 1 is 0.0
    code, out, err = run_cli(capsys, "critical-table", "--alpha", "5e-324", "--beta", "1", "--n", "5", "-B", "10")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "domain"


@pytest.mark.parametrize(
    "dist,t", [("exp(3)", "1e308"), ("exp(1e308)", "2"), ("weibull(1e308)", "1.0000001"), ("rayleigh(1)", "1e200")]
)
def test_overflowing_log_survival_warns_nothing(dist, t, capsys):
    # the log survival -H(t) overflows to -inf, the right value, with no
    # RuntimeWarning before the closed form's domain error
    code, out, err = run_cli(capsys, "dynamic", "--dist", dist, "--measure", "gdwfe", "--method", "closed", "--t", t)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "domain", "message": "no closed form for this family"}


def test_domain_error_degenerate_sample(capsys, tmp_path):
    path = write_values(tmp_path, "x.txt", [2.0, 2.0, 2.0])
    code, _, err = run_cli(capsys, "empirical", "--data", path)
    assert code == 1
    assert json.loads(err)["error"] == "degenerate-sample"


# ---------- the error contract as a property ----------

_ODD = ["0", "-0", "nan", "inf", "-inf", "1e308", "1e20", "1e-320", "5e-324", "", "x"]
_ARITY = {"exp": 1, "exponential": 1, "pareto": 2, "uniform": 2, "power": 2, "rayleigh": 1, "weibull": 1, "gamma": 1}
# n of 2**24 and more, and B over 2**32, must fail the layout check before any draw
_ODD_SIZES = ["0", "1", "", "x", "10:4", "1e20", "16777216", "5000000000", "4:16777221:16777217"]
_ODD_COUNTS = ["0", "-3", "", "x", "4294967297"]
_USUAL = ["0.3", "1", "2.5", "7"]
_DATA = {"values.txt": "0.3 1.2 0.7 2.5 0.1\n", "ties.txt": "2 2 2\n", "nan.txt": "0.5 nan 1.5\n", "huge.txt": "0.5 1e300 2\n",
         "empty.txt": ""}


@st.composite
def _usual_or_odd(draw, usual, odd):
    # three draws in four are usual, so that more commands get past the parser
    return draw(st.sampled_from(odd if draw(st.integers(0, 3)) == 0 else usual))


_number = _usual_or_odd(_USUAL, _ODD)


@st.composite
def _specs(draw):
    name = draw(st.sampled_from(sorted(_ARITY)))
    return f"{name}({','.join(draw(_number) for _ in range(_ARITY[name]))})"


def _flag(name, values, required=False):
    flag = values.map(lambda v: [name, v])
    return flag if required else st.one_of(st.just([]), flag)


def _command(name, *flags):
    return st.tuples(*flags).map(lambda parts: [name, *(word for part in parts for word in part)])


_data = _usual_or_odd(["values.txt"], [*_DATA, "missing.txt"])
_sizes = _usual_or_odd(["2", "5", "20", "4:6"], _ODD_SIZES)
_methods = st.sampled_from(["auto", "closed", "quadrature"])
_order = (_flag("--alpha", _number), _flag("--beta", _number))
_sim = (
    _flag("-B", _usual_or_odd(["1", "50", "200"], _ODD_COUNTS), required=True),
    _flag("--seed", _usual_or_odd(["0", "7"], ["-1", "x", "1e20", "18446744073709551617"])),
    _flag("--variant", _usual_or_odd(["gaps-only", "full-step"], ["x"])),
)
_ARGVS = st.one_of(
    _command("entropy", _flag("--dist", _specs(), True), _flag("--measure", st.sampled_from(["gwse", "gwfe", "gse", "gfe"])),
             _flag("--method", _methods), *_order),
    _command("dynamic", _flag("--dist", _specs(), True), _flag("--measure", st.sampled_from(["gdwse", "gdwfe"])),
             _flag("--t", _number, True), _flag("--method", _methods), *_order),
    _command("empirical", _flag("--data", _data, True), _flag("--measure", st.sampled_from(["gwse", "gwfe"])),
             _flag("--variant", st.sampled_from(["gaps-only", "full-step"])), *_order),
    _command("gof-test", _flag("--data", _data, True), _flag("--level", _number), *_order, *_sim),
    _command("critical-table", _flag("--n", _sizes, True), _flag("--levels", _number), *_order, *_sim),
    _command("power", _flag("--alt", _specs(), True), _flag("--n", _sizes, True),
             _flag("--levels", _number), *_order, *_sim),
)


def _check_contract(argv):
    """Exit 0 with JSON on stdout, exit 2, or exit 1 with one JSON line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == "" and isinstance(json.loads(out), dict)
    elif code == 1:
        [line] = err.splitlines()
        doc = json.loads(line)
        assert out == "" and set(doc) == {"error", "message"}
        assert doc["error"] in ("domain", "divergence", "degenerate-sample", "missing-table-entry")
    else:
        assert code == 2 and out == ""


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    for name, text in _DATA.items():
        (d / name).write_text(text)
    return d


@settings(max_examples=200)  # many draws end in a usage error, so more than the profile's 60
@given(argv=_ARGVS)
def test_error_contract_on_the_input_grammar(argv, data_dir):
    # every subcommand but verify; pytest turns any warning on the way into an error
    _check_contract([str(data_dir / word) if word.endswith(".txt") else word for word in argv])


@pytest.mark.parametrize(
    "argv",
    [
        # Gamma.pdf overflows in exp at a concentrated law, and quad falls short
        "entropy --dist gamma(1e20) --method quadrature --measure gse",
        "entropy --dist gamma(1e308) --method quadrature --measure gse",
        # quad falls short where a concentrated law's window loses its mass
        # (ROADMAP item 10), on the survival side and on the failure side
        "entropy --dist gamma(60) --measure gse",
        "dynamic --dist weibull(7) --measure gdwfe --t 7",
        # Pareto.pdf's scale ** shape and Power.pdf's upper ** shape past the
        # float range, and Power.pdf's 1 / upper ** shape at a subnormal upper
        "entropy --dist pareto(1e20,2.5) --method quadrature",
        "entropy --dist power(7,1e308)",
        "entropy --dist power(0.3,5e-324) --measure gse",
        # a subnormal scale overflows a quotient: 1 / scale in Uniform.sf,
        # x / upper in Power.cdf
        "dynamic --dist uniform(-0,1e-320) --t 1e308 --method closed",
        "dynamic --dist power(7,1e-320) --measure gdwse --t 1e20 --method quadrature",
        # the engine's draws overflow (Exponential._isf_log and Rayleigh._isf_log at a
        # subnormal rate, Pareto._quantile at a huge scale), and their gap sums
        # overflow or meet inf - inf
        "power --alt exponential(5e-324) --n 2 -B 50",
        "power --alt rayleigh(1e-320) --n 20 -B 20",
        "power --alt pareto(1,1e308) --n 2 -B 20",
        "power --alt pareto(1e308,1e308) --n 2 -B 1",
        "power --alt weibull(5e-324) --n 20 -B 50",
        # gdwfe's window nodes round to v = 0 where cdf(t) is subnormal
        "dynamic --dist weibull(1) --measure gdwfe --t 5e-324",
    ],
)
def test_error_contract_known_breaks(argv):
    # inputs that broke the contract once
    _check_contract(argv.split())


def test_quadrature_short_of_rel_tol_is_one_json_line():
    # quad falls short on gamma(60)'s window; it once printed a value 2.1e-4
    # off and an IntegrationWarning with exit 0, where no -W error is set
    proc = _run_module("entropy", "--dist", "gamma(60)", "--measure", "gse")
    assert proc.returncode == 1 and proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert json.loads(line)["error"] == "domain"


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


def test_seed_env_variable_malformed_is_usage_error(capsys, monkeypatch):
    argv = ["critical-table", "--n", "5", "--levels", "0.05", "--replications", "100"]
    for raw in ("abc", "0x10"):
        monkeypatch.setenv("GWENTROPY_SEED", raw)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    # an explicit flag still wins over the malformed variable
    code, out, _ = run_cli(capsys, *argv, "--seed", "44")
    assert code == 0
    assert json.loads(out)["seed"] == 44


def test_console_script_entry_point():
    proc = _run_module("entropy", "--dist", "exp(1)")
    if proc.returncode != 0:
        # fall back to the installed script if module execution is unavailable
        proc = subprocess.run(
            ["gwentropy", "entropy", "--dist", "exp(1)"], capture_output=True, text=True
        )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["measure"] == "gwse"


def test_import_leaves_scipy_integrate_unloaded():
    # quadrature imports scipy.integrate only for the quad fallback, and Gamma
    # and Rayleigh's unweighted closed form import scipy.special at first use,
    # so the package starts, and simulates a table, with no scipy module loaded
    table = "import gwentropy.cli; gwentropy.cli.main(['critical-table', '--n', '20', '-B', '1000'])"
    for script in ("import gwentropy", table):
        code = f"{script}\nimport sys\nprint([m for m in sys.modules if m.partition('.')[0] == 'scipy'], file=sys.stderr)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_checkout_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == "[]", script


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
