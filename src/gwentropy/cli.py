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
distribution text, bad ranges, counts below 1, sample sizes of 2**24 or
more and over 2**32 replications), 1 for domain errors, in which case a
one-line JSON object {"error": code, "message": ...} goes to stderr.  The
code is the error class's ``code`` attribute: divergence (a divergent
measure), degenerate-sample, missing-table-entry (under --no-simulate)
and domain for the rest (an invalid order, a malformed table file, an
integral outside the float range).  Results print as JSON by default;
tabular commands also offer csv, scalar ones a readable table, and verify
exits 1 when a cell fails.
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
from ._random import B_LIMIT, N_LIMIT
from .distributions import from_spec
from .empirical import EstimatorVariant, Sample, empirical_gwfe, empirical_gwse
from .entropy import EntropyOrder, gdwfe, gdwse, gfe, gse, gwfe, gwse
from .errors import GwentropyError
from .gof import (
    DEFAULT_LEVELS,
    DEFAULT_ORDER,
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
_ESTIMATORS = {"gwse": empirical_gwse, "gwfe": empirical_gwfe}


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
            else:
                start = stop = int(part)
                step = 1
            if stop >= N_LIMIT:  # before the range is built
                raise argparse.ArgumentTypeError(f"sample sizes must be below {N_LIMIT}, the stream layout's limit")
            values.update(range(start, stop + 1, step))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot parse sample sizes {text!r}; use e.g. '4:30,35:50:5,60'"
        ) from exc
    if not values:
        raise argparse.ArgumentTypeError("no sample sizes given")
    return sorted(values)


def _level_arg(text: str) -> float:
    try:
        level = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse level {text!r}") from exc
    if not 0.0 < level < 1.0:  # nan fails too
        raise argparse.ArgumentTypeError("levels must lie strictly inside (0, 1)")
    return level


def _levels_arg(text: str) -> tuple[float, ...]:
    levels = tuple(_level_arg(p) for p in text.split(",") if p.strip())
    if not levels:
        raise argparse.ArgumentTypeError("no levels given")
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


def _replications_arg(text: str) -> int:
    value = _positive_int(text)
    if value > B_LIMIT:
        raise argparse.ArgumentTypeError(f"must be at most {B_LIMIT}, the stream layout's limit, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)  # argparse turns a ValueError into a usage error
    if not 0.0 < value < float("inf"):  # nan fails too
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


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


# ---------- subcommand handlers ----------
# Each returns its JSON document and its text for the command's other
# format; main renders, writes and sets the exit status.


def _order_from(args) -> EntropyOrder:
    return EntropyOrder(args.alpha, args.beta)


def _config(args, **fields) -> TestConfig:
    return TestConfig(
        order=_order_from(args), replications=args.replications, seed=args.seed, variant=args.variant, **fields
    )


def _cmd_entropy(args) -> tuple[dict, str]:
    order = _order_from(args)
    value = _MEASURES[args.measure](args.dist, order, method=args.method).value
    doc = {
        "measure": args.measure,
        "dist": args.dist.spec_text,
        "alpha": order.alpha,
        "beta": order.beta,
        "gamma": order.gamma,
        "delta": order.delta,
        "method": args.method,
        "value": value,
    }
    return doc, f"{args.measure}({args.dist.spec_text}) = {value:.10g}\n"


def _cmd_dynamic(args) -> tuple[dict, str]:
    order = _order_from(args)
    value = _DYNAMIC[args.measure](args.dist, order, args.t, method=args.method).value
    doc = {
        "measure": args.measure,
        "dist": args.dist.spec_text,
        "alpha": order.alpha,
        "beta": order.beta,
        "t": args.t,
        "method": args.method,
        "value": value,
    }
    return doc, f"{args.measure}({args.dist.spec_text}; t={args.t:g}) = {value:.10g}\n"


def _cmd_empirical(args) -> tuple[dict, str]:
    order = _order_from(args)
    s = Sample(_read_values(args.data, args.column))
    value = _ESTIMATORS[args.measure](s, order, args.variant)
    doc = {
        "measure": args.measure,
        "n": s.n,
        "alpha": order.alpha,
        "beta": order.beta,
        "variant": args.variant.value,
        "value": value,
    }
    return doc, f"empirical {args.measure} (n={s.n}) = {value:.10g}\n"


def _load_table(path: str | None) -> CriticalTable | None:
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return CriticalTable.from_json(fh.read())
    except OSError as exc:
        raise GwentropyError(f"cannot read table {path}: {exc}") from exc


def _cmd_gof_test(args) -> tuple[dict, str]:
    cfg = _config(args, level=args.level)
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
    verdict = "reject" if outcome.reject else "accept"
    text = (
        f"T = {outcome.statistic.t_value:.5f}, critical value = "
        f"{outcome.critical_value:.5f} (n={outcome.n}, level={outcome.level:g}): "
        f"{verdict} exponentiality\n"
    )
    return doc, text


def _cmd_critical_table(args) -> tuple[str, str]:
    # the JSON document is the table's own file format, which --table reads back
    table = critical_values(args.n, args.levels, _config(args))
    return table.to_json(), table.to_csv()


def _cmd_power(args) -> tuple[dict, str]:
    cfg = _config(args)
    results = power_study(args.alt, args.n, args.levels, cfg, table=_load_table(args.table))
    lines = ["n,level,critical_value,power,rejections,replications"]
    for r in results:
        lines.append(f"{r.n},{r.level:g},{r.critical_value:.5f},{r.power:.4f},{r.rejections},{r.replications}")
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
    return doc, "\n".join(lines) + "\n"


def _cmd_verify(args) -> tuple[dict, str]:
    cells = run_closed_form_suite(draws=args.draws, seed=args.seed, tol=args.tol)
    doc = {
        "draws": args.draws,
        "tol": args.tol,
        "cells": [
            {"name": c.name, "max_rel_err": c.max_rel_err, "ok": c.ok} for c in cells
        ],
        "ok": all(c.ok for c in cells),
    }
    width = max(len(c.name) for c in cells)
    text = "".join(
        f"{'pass' if c.ok else 'FAIL'}  {c.name:<{width}}  max rel err {c.max_rel_err:.3e}\n" for c in cells
    )
    return doc, text


# ---------- parser ----------


def _add_order_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=DEFAULT_ORDER.alpha, help="order parameter alpha")
    p.add_argument("--beta", type=float, default=DEFAULT_ORDER.beta, help="order parameter beta")


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--replications", "-B", type=_replications_arg, default=TestConfig.replications, help="Monte-Carlo replications")
    # argparse parses a string default through type, so a malformed GWENTROPY_SEED is a usage error
    p.add_argument(
        "--seed", type=int, default=os.environ.get("GWENTROPY_SEED") or "0",
        help="simulation seed (default: GWENTROPY_SEED or 0)",
    )
    p.add_argument("--variant", type=_variant_arg, default=EstimatorVariant.GAPS_ONLY, help="estimator variant: gaps-only or full-step")


def _add_data_args(p: argparse.ArgumentParser, column_help: str) -> None:
    p.add_argument("--data", required=True, help="file of values, or '-' for stdin")
    p.add_argument("--column", help=column_help)


def _add_format(p: argparse.ArgumentParser, handler, *formats: str) -> None:
    """Offer formats, the first the default, and run handler for the subcommand."""
    p.add_argument("--format", choices=formats, default=formats[0])
    p.set_defaults(handler=handler)


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write to file instead of stdout")


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
    _add_format(p, _cmd_entropy, "json", "table")

    p = sub.add_parser("dynamic", help="dynamic measure at a time point")
    p.add_argument("--dist", type=_dist_arg, required=True)
    p.add_argument("--measure", choices=sorted(_DYNAMIC), default="gdwse")
    p.add_argument("--t", type=float, required=True, help="time point")
    p.add_argument("--method", choices=["auto", "closed", "quadrature"], default="auto")
    _add_order_args(p)
    _add_format(p, _cmd_dynamic, "json", "table")

    p = sub.add_parser("empirical", help="order-statistic estimate from data")
    _add_data_args(p, "CSV column name (default: whitespace/comma separated values)")
    p.add_argument("--measure", choices=list(_ESTIMATORS), default="gwse")
    p.add_argument("--variant", type=_variant_arg, default=EstimatorVariant.GAPS_ONLY)
    _add_order_args(p)
    _add_format(p, _cmd_empirical, "json", "table")

    p = sub.add_parser("gof-test", help="test a sample for exponentiality")
    _add_data_args(p, "CSV column name")
    p.add_argument("--level", type=_level_arg, default=TestConfig.level, help="significance level")
    p.add_argument("--table", help="critical-table JSON produced by critical-table")
    p.add_argument("--no-simulate", action="store_true", help="fail instead of simulating a missing critical value")
    _add_order_args(p)
    _add_sim_args(p)
    _add_format(p, _cmd_gof_test, "json", "table")

    p = sub.add_parser("critical-table", help="simulate a critical-value table")
    p.add_argument("--n", type=_n_values_arg, required=True, help="sample sizes, e.g. '4:30,35:50:5'")
    p.add_argument("--levels", type=_levels_arg, default=DEFAULT_LEVELS, help="comma-separated levels (default 0.01,0.05,0.10)")
    _add_order_args(p)
    _add_sim_args(p)
    _add_format(p, _cmd_critical_table, "json", "csv")
    _add_out(p)

    p = sub.add_parser("power", help="rejection rate against an alternative")
    p.add_argument("--alt", type=_dist_arg, required=True, help="alternative distribution, e.g. 'weibull(2)'")
    p.add_argument("--n", type=_n_values_arg, required=True)
    p.add_argument("--levels", type=_levels_arg, default=DEFAULT_LEVELS)
    p.add_argument("--table", help="use critical values from this JSON table")
    _add_order_args(p)
    _add_sim_args(p)
    _add_format(p, _cmd_power, "json", "csv")
    _add_out(p)

    p = sub.add_parser("verify", help="closed form vs quadrature self-check")
    p.add_argument("--draws", type=_positive_int, default=20, help="random draws per cell")
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--tol", type=_positive_float, default=1e-8, help="relative tolerance per draw")
    _add_format(p, _cmd_verify, "table", "json")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc, text = args.handler(args)
    except GwentropyError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 1
    if args.format == "json":
        text = doc if isinstance(doc, str) else json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):  # only the tabular commands take --out
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if args.command == "verify" and not doc["ok"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
