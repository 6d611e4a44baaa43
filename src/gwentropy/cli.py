"""Command-line interface.

Subcommands: entropy, dynamic, empirical, gof-test, critical-table, power,
verify.  Distributions are given in the text form ``name(p1[, p2])`` with a
case-insensitive family name and positional parameters:

    exponential(rate)      or exp(rate)
    pareto(shape, scale)
    uniform(lower, upper)
    power(shape, upper)
    rayleigh(rate)
    weibull(shape)
    gamma(shape)

Exit status: 0 on success, 2 for usage errors (argparse, malformed
distribution text, bad ranges, counts below 1), 1 for domain errors
(divergent measure, invalid order, degenerate sample, malformed table
file), in which case a one-line JSON object
{"error": code, "message": ...} goes to stderr.  Results print as JSON by
default; tabular commands also offer csv, scalar ones a readable table.
The environment variable GWENTROPY_SEED supplies the default simulation
seed; an explicit --seed wins.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import __version__
from .distributions import from_spec
from .empirical import EstimatorVariant, Sample
from .entropy import EntropyOrder, gdwfe, gdwse, gfe, gse, gwfe, gwse
from .errors import (
    DegenerateSampleError,
    DivergenceError,
    GwentropyError,
    MissingTableEntryError,
)
from .gof import (
    DEFAULT_LEVELS,
    CriticalTable,
    TestConfig,
    critical_values,
    power_study,
    run_test,
)
from .verification import run_closed_form_suite

__all__ = ["main"]

_MEASURES = {"gwse": gwse, "gwfe": gwfe, "gse": gse, "gfe": gfe}
_DYNAMIC = {"gdwse": gdwse, "gdwfe": gdwfe}


# ---------- argument helpers ----------


def _dist_arg(text: str):
    try:
        d = from_spec(text)
    except GwentropyError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    d.spec_text = text.strip()
    return d


def _n_values_arg(text: str) -> list[int]:
    """Parse '4:30,35:50:5,60' into a sorted list (ranges are inclusive)."""
    values: set[int] = set()
    try:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if ":" in part:
                bits = [int(b) for b in part.split(":")]
                if len(bits) == 2:
                    start, stop, step = bits[0], bits[1], 1
                elif len(bits) == 3:
                    start, stop, step = bits
                else:
                    raise ValueError(part)
                if step < 1 or stop < start:
                    raise ValueError(part)
                values.update(range(start, stop + 1, step))
            else:
                values.add(int(part))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot parse sample sizes {text!r}; use e.g. '4:30,35:50:5,60'"
        ) from exc
    if not values:
        raise argparse.ArgumentTypeError("no sample sizes given")
    return sorted(values)


def _levels_arg(text: str) -> tuple[float, ...]:
    try:
        levels = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse levels {text!r}") from exc
    if not levels or any(not 0.0 < v < 1.0 for v in levels):
        raise argparse.ArgumentTypeError("levels must lie strictly inside (0, 1)")
    return levels


def _variant_arg(text: str) -> EstimatorVariant:
    try:
        return EstimatorVariant(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"unknown variant {text!r}; choose gaps-only or full-step"
        ) from exc


def _positive_int(text: str) -> int:
    value = int(text)  # argparse turns a ValueError into a usage error
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _default_seed() -> int:
    raw = os.environ.get("GWENTROPY_SEED", "")
    try:
        return int(raw) if raw else 0
    except ValueError:
        return 0


def _read_values(path: str, column: str | None) -> list[float]:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise GwentropyError(f"cannot read {path}: {exc}") from exc
    if column is not None:
        import csv as _csv
        import io

        reader = _csv.DictReader(io.StringIO(text))
        if reader.fieldnames is None or column not in reader.fieldnames:
            raise GwentropyError(f"column {column!r} not found in {path}")
        try:
            return [float(row[column]) for row in reader if row[column].strip()]
        except ValueError as exc:
            raise GwentropyError(f"non-numeric value in column {column!r}") from exc
    tokens = [tok for tok in re.split(r"[,\s]+", text.strip()) if tok]
    try:
        return [float(tok) for tok in tokens]
    except ValueError as exc:
        raise GwentropyError(f"non-numeric value in {path}") from exc


def _emit(doc, out: str | None = None) -> None:
    _write_out(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------- subcommand handlers ----------


def _order_from(args) -> EntropyOrder:
    return EntropyOrder(args.alpha, args.beta)


def _cmd_entropy(args) -> int:
    order = _order_from(args)
    value = _MEASURES[args.measure](args.dist, order, method=args.method)
    doc = {
        "measure": args.measure,
        "dist": args.dist.spec_text,
        "alpha": order.alpha,
        "beta": order.beta,
        "gamma": order.gamma,
        "delta": order.delta,
        "method": args.method,
        "value": value.value,
    }
    if args.format == "table":
        _write_out(f"{args.measure}({args.dist.spec_text}) = {value.value:.10g}\n", None)
    else:
        _emit(doc)
    return 0


def _cmd_dynamic(args) -> int:
    order = _order_from(args)
    value = _DYNAMIC[args.measure](args.dist, order, args.t, method=args.method)
    doc = {
        "measure": args.measure,
        "dist": args.dist.spec_text,
        "alpha": order.alpha,
        "beta": order.beta,
        "t": args.t,
        "method": args.method,
        "value": value.value,
    }
    if args.format == "table":
        _write_out(
            f"{args.measure}({args.dist.spec_text}; t={args.t:g}) = {value.value:.10g}\n", None
        )
    else:
        _emit(doc)
    return 0


def _cmd_empirical(args) -> int:
    order = _order_from(args)
    s = Sample(_read_values(args.data, args.column))
    if args.measure == "gwse":
        from .empirical import empirical_gwse as est
    else:
        from .empirical import empirical_gwfe as est
    value = est(s, order, args.variant)
    doc = {
        "measure": args.measure,
        "n": s.n,
        "alpha": order.alpha,
        "beta": order.beta,
        "variant": args.variant.value,
        "value": value,
    }
    if args.format == "table":
        _write_out(f"empirical {args.measure} (n={s.n}) = {value:.10g}\n", None)
    else:
        _emit(doc)
    return 0


def _load_table(path: str | None) -> CriticalTable | None:
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return CriticalTable.from_json(fh.read())
    except OSError as exc:
        raise GwentropyError(f"cannot read table {path}: {exc}") from exc


def _cmd_gof_test(args) -> int:
    cfg = TestConfig(
        order=_order_from(args),
        level=args.level,
        replications=args.replications,
        seed=args.seed,
        variant=args.variant,
    )
    s = Sample(_read_values(args.data, args.column))
    outcome = run_test(s, cfg, table=_load_table(args.table), simulate_missing=not args.no_simulate)
    doc = {
        "n": outcome.n,
        "level": outcome.level,
        "critical_value": outcome.critical_value,
        "t": outcome.statistic.t_value,
        "distance": outcome.statistic.distance,
        "estimate": outcome.statistic.estimate,
        "plug_in": outcome.statistic.plug_in,
        "lambda_hat": outcome.statistic.lambda_hat,
        "reject": outcome.reject,
        "table_simulated": outcome.table_simulated,
    }
    if args.format == "table":
        verdict = "reject" if outcome.reject else "accept"
        _write_out(
            f"T = {outcome.statistic.t_value:.5f}, critical value = "
            f"{outcome.critical_value:.5f} (n={outcome.n}, level={outcome.level:g}): "
            f"{verdict} exponentiality\n",
            None,
        )
    else:
        _emit(doc)
    return 0


def _cmd_critical_table(args) -> int:
    cfg = TestConfig(
        order=_order_from(args),
        replications=args.replications,
        seed=args.seed,
        variant=args.variant,
    )
    table = critical_values(args.n, args.levels, cfg, workers=args.workers)
    text = table.to_csv() if args.format == "csv" else table.to_json()
    _write_out(text, args.out)
    return 0


def _cmd_power(args) -> int:
    cfg = TestConfig(
        order=_order_from(args),
        replications=args.replications,
        seed=args.seed,
        variant=args.variant,
    )
    results = power_study(
        args.alt, args.n, args.levels, cfg, table=_load_table(args.table), workers=args.workers
    )
    if args.format == "csv":
        lines = ["n,level,critical_value,power,rejections,replications"]
        for r in results:
            lines.append(
                f"{r.n},{r.level:g},{r.critical_value:.5f},{r.power:.4f},{r.rejections},{r.replications}"
            )
        _write_out("\n".join(lines) + "\n", args.out)
    else:
        doc = {
            "alt": args.alt.spec_text,
            "replications": cfg.replications,
            "seed": cfg.seed,
            "results": [
                {
                    "n": r.n,
                    "level": r.level,
                    "critical_value": r.critical_value,
                    "power": r.power,
                    "rejections": r.rejections,
                }
                for r in results
            ],
        }
        _emit(doc, args.out)
    return 0


def _cmd_verify(args) -> int:
    cells = run_closed_form_suite(draws=args.draws, seed=args.seed, tol=args.tol)
    if args.format == "json":
        doc = {
            "draws": args.draws,
            "tol": args.tol,
            "cells": [
                {"name": c.name, "max_rel_err": c.max_rel_err, "ok": c.ok} for c in cells
            ],
            "ok": all(c.ok for c in cells),
        }
        _emit(doc)
    else:
        width = max(len(c.name) for c in cells)
        for c in cells:
            mark = "pass" if c.ok else "FAIL"
            _write_out(f"{mark}  {c.name:<{width}}  max rel err {c.max_rel_err:.3e}\n", None)
    return 0 if all(c.ok for c in cells) else 1


# ---------- parser ----------


def _add_order_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.26, help="order parameter alpha")
    p.add_argument("--beta", type=float, default=1.25, help="order parameter beta")


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--replications", "-B", type=_positive_int, default=10000, help="Monte-Carlo replications")
    p.add_argument("--seed", type=int, default=_default_seed(), help="simulation seed (default: GWENTROPY_SEED or 0)")
    p.add_argument("--variant", type=_variant_arg, default=EstimatorVariant.GAPS_ONLY, help="estimator variant: gaps-only or full-step")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwentropy",
        description="Weighted survival/failure entropies and an exponentiality test.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="static measure of a named distribution")
    p.add_argument("--dist", type=_dist_arg, required=True, help="distribution, e.g. 'exp(1)'")
    p.add_argument("--measure", choices=sorted(_MEASURES), default="gwse")
    p.add_argument("--method", choices=["auto", "closed", "quadrature"], default="auto")
    _add_order_args(p)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("dynamic", help="dynamic measure at a time point")
    p.add_argument("--dist", type=_dist_arg, required=True)
    p.add_argument("--measure", choices=sorted(_DYNAMIC), default="gdwse")
    p.add_argument("--t", type=float, required=True, help="time point")
    p.add_argument("--method", choices=["auto", "closed", "quadrature"], default="auto")
    _add_order_args(p)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(handler=_cmd_dynamic)

    p = sub.add_parser("empirical", help="order-statistic estimate from data")
    p.add_argument("--data", required=True, help="file of values, or '-' for stdin")
    p.add_argument("--column", help="CSV column name (default: whitespace/comma separated values)")
    p.add_argument("--measure", choices=["gwse", "gwfe"], default="gwse")
    p.add_argument("--variant", type=_variant_arg, default=EstimatorVariant.GAPS_ONLY)
    _add_order_args(p)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(handler=_cmd_empirical)

    p = sub.add_parser("gof-test", help="test a sample for exponentiality")
    p.add_argument("--data", required=True, help="file of values, or '-' for stdin")
    p.add_argument("--column", help="CSV column name")
    p.add_argument("--level", type=float, default=0.05, help="significance level")
    p.add_argument("--table", help="critical-table JSON produced by critical-table")
    p.add_argument("--no-simulate", action="store_true", help="fail instead of simulating a missing critical value")
    _add_order_args(p)
    _add_sim_args(p)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(handler=_cmd_gof_test)

    p = sub.add_parser("critical-table", help="simulate a critical-value table")
    p.add_argument("--n", type=_n_values_arg, required=True, help="sample sizes, e.g. '4:30,35:50:5'")
    p.add_argument("--levels", type=_levels_arg, default=DEFAULT_LEVELS, help="comma-separated levels (default 0.01,0.05,0.10)")
    p.add_argument("--workers", type=int, default=1, help="worker processes (result is worker-count independent)")
    _add_order_args(p)
    _add_sim_args(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(handler=_cmd_critical_table)

    p = sub.add_parser("power", help="rejection rate against an alternative")
    p.add_argument("--alt", type=_dist_arg, required=True, help="alternative distribution, e.g. 'weibull(2)'")
    p.add_argument("--n", type=_n_values_arg, required=True)
    p.add_argument("--levels", type=_levels_arg, default=DEFAULT_LEVELS)
    p.add_argument("--table", help="use critical values from this JSON table")
    p.add_argument("--workers", type=int, default=1)
    _add_order_args(p)
    _add_sim_args(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(handler=_cmd_power)

    p = sub.add_parser("verify", help="closed form vs quadrature self-check")
    p.add_argument("--draws", type=_positive_int, default=20, help="random draws per cell")
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--tol", type=float, default=1e-8, help="relative tolerance per draw")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(handler=_cmd_verify)

    return parser


_ERROR_CODES = [
    (DivergenceError, "divergence"),
    (DegenerateSampleError, "degenerate-sample"),
    (MissingTableEntryError, "missing-table-entry"),
    (GwentropyError, "domain"),
]


def _error_code(exc: GwentropyError) -> str:
    for cls, code in _ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return "domain"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except GwentropyError as exc:
        print(json.dumps({"error": _error_code(exc), "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
