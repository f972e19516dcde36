"""Command-line front end.

Subcommands: calibrate, compare, profile, region, compose, experiment.
Tables are emitted as RFC-4180 CSV (header row) or as JSON, one object per
line; floats are printed with Python's shortest round-trip repr, so parsing
an emitted file recovers the exact values.  Exit status: 0 on success, 2 on
usage or domain errors, 3 on numerical non-convergence or bracket failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__
from .calib import (
    BracketError,
    ConvergenceError,
    DEFAULT_TOL,
    MECHANISM_ORDER,
    Mechanism,
    NoiseScale,
    PrivacyBudget,
    Sensitivity,
    achieves_dp,
    calibrate,
    dp_delta_profile,
    failure_threshold,
    pdp_delta_profile,
    solve_dp_opt,
    solve_pdp_opt,
)
from .compose import CompositionTerm, composed_dp_delta, composed_pdp_delta, effective_unit_sigma
from .mech import histogram_experiment, mean_experiment, read_categorical_csv

_CLASSICAL = (Mechanism.DWORK2006, Mechanism.DWORK2014)


def _parse_grid(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("grid must contain at least one value")
    return values


def _parse_term(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"term must look like DELTA:SIGMA, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"term must look like DELTA:SIGMA, got {text!r}")


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(records: list[dict], fieldnames: list[str], args) -> None:
    buffer = io.StringIO()
    if args.format == "csv":
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(fieldnames)
        for record in records:
            writer.writerow([_cell(record[name]) for name in fieldnames])
    else:
        for record in records:
            buffer.write(json.dumps({name: record[name] for name in fieldnames}))
            buffer.write("\n")
    text = buffer.getvalue()
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _budget(args) -> PrivacyBudget:
    return PrivacyBudget(args.eps, args.delta)


def _calibration_record(kind: Mechanism, budget: PrivacyBudget, sens: Sensitivity, tol: float) -> dict:
    if kind is Mechanism.DP_OPT:
        result = solve_dp_opt(budget, sens, tol)
        sigma, iterations, residual = result.noise.sigma, result.iterations, result.residual
    elif kind is Mechanism.PDP_OPT:
        result = solve_pdp_opt(budget, sens, tol)
        sigma, iterations, residual = result.noise.sigma, result.iterations, result.residual
    else:
        sigma, iterations, residual = calibrate(kind, budget, sens).sigma, 0, 0.0
    warning = ""
    if kind in _CLASSICAL and budget.epsilon > 1.0:
        warning = (
            f"epsilon > 1 voids the {kind} guarantee (its proof assumes "
            f"epsilon <= 1); see the region command for the failure frontier"
        )
    return {
        "mechanism": str(kind),
        "epsilon": budget.epsilon,
        "delta": budget.delta,
        "sensitivity": sens.l2,
        "sigma": sigma,
        "iterations": iterations,
        "residual": residual,
        "warning": warning,
    }


def cmd_calibrate(args) -> None:
    record = _calibration_record(
        Mechanism(args.mech), _budget(args), Sensitivity(args.sens), args.tol
    )
    _emit(
        [record],
        ["mechanism", "epsilon", "delta", "sensitivity", "sigma", "iterations", "residual", "warning"],
        args,
    )


def cmd_compare(args) -> None:
    sens = Sensitivity(args.sens)
    records = []
    for eps in args.eps_grid:
        for delta in args.delta_grid:
            budget = PrivacyBudget(eps, delta)
            for kind in MECHANISM_ORDER:
                noise = calibrate(kind, budget, sens, args.tol)
                records.append(
                    {
                        "epsilon": eps,
                        "delta": delta,
                        "mechanism": str(kind),
                        "sigma": noise.sigma,
                        "achieves_dp": achieves_dp(noise, budget, sens),
                    }
                )
    _emit(records, ["epsilon", "delta", "mechanism", "sigma", "achieves_dp"], args)


def cmd_profile(args) -> None:
    sens = Sensitivity(args.sens)
    records = []
    for sigma in args.sigma_grid:
        noise = NoiseScale(sigma, Mechanism.DP_OPT)
        records.append(
            {
                "sigma": sigma,
                "dp_delta": dp_delta_profile(noise, args.eps, sens),
                "pdp_delta": pdp_delta_profile(noise, args.eps, sens),
            }
        )
    _emit(records, ["sigma", "dp_delta", "pdp_delta"], args)


def cmd_region(args) -> None:
    unit = Sensitivity(1.0)
    records = []
    for delta in args.delta_grid:
        # F(delta) is the classical sigma at eps = 1 and unit sensitivity
        budget = PrivacyBudget(1.0, delta)
        record = {"delta": delta}
        for kind in _CLASSICAL:
            f_of_delta = calibrate(kind, budget, unit).sigma
            record[f"G_{kind}"] = failure_threshold(f_of_delta, delta, args.tol)
        records.append(record)
    _emit(records, ["delta", "G_dwork2014", "G_dwork2006"], args)


def cmd_compose(args) -> None:
    terms = [CompositionTerm(Sensitivity(d), s) for d, s in args.term]
    record = {
        "sigma_star": effective_unit_sigma(terms),
        "dp_delta": composed_dp_delta(terms, args.eps),
        "pdp_delta": composed_pdp_delta(terms, args.eps),
    }
    _emit([record], ["sigma_star", "dp_delta", "pdp_delta"], args)


def cmd_experiment(args) -> None:
    budget = _budget(args)
    if args.experiment_kind == "hist":
        _, rows = read_categorical_csv(args.csv)
    records = []
    for kind in MECHANISM_ORDER:
        if args.experiment_kind == "mean":
            report = mean_experiment(
                args.n, args.d, budget, kind, args.trials, args.seed,
                sensitivity=args.sens,
            )
        else:
            report = histogram_experiment(rows, budget, kind, args.trials, args.seed)
        records.append(
            {
                "mechanism": str(report.mechanism),
                "trials": report.trials,
                "metric": report.metric,
                "metric_stderr": report.metric_stderr,
            }
        )
    _emit(records, ["mechanism", "trials", "metric", "metric_stderr"], args)


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default: csv)")
    parser.add_argument("--output", default="-", metavar="PATH",
                        help="output path, '-' for stdout (default)")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="solver tolerance on the root variable (default 1e-12)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussdp",
        description="Gaussian noise calibration for (eps, delta)-DP and pDP.",
    )
    parser.add_argument("--version", action="version", version=f"gaussdp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    mech_tags = [str(m) for m in MECHANISM_ORDER]

    p = sub.add_parser("calibrate", help="noise scale for one mechanism")
    p.add_argument("--mech", required=True, choices=mech_tags)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--sens", type=float, default=1.0)
    _add_output_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("compare", help="sigma table for all mechanisms over a grid")
    p.add_argument("--eps-grid", type=_parse_grid, required=True)
    p.add_argument("--delta-grid", type=_parse_grid, required=True)
    p.add_argument("--sens", type=float, default=1.0)
    _add_output_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("profile", help="DP/pDP delta profiles over a sigma grid")
    p.add_argument("--sigma-grid", type=_parse_grid, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--sens", type=float, default=1.0)
    _add_output_flags(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("region", help="failure frontier G(delta) of the classical mechanisms")
    p.add_argument("--delta-grid", type=_parse_grid, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("compose", help="account a composition of Gaussian mechanisms")
    p.add_argument("--term", type=_parse_term, action="append", required=True,
                   metavar="DELTA:SIGMA", help="sensitivity:sigma pair (repeatable)")
    p.add_argument("--eps", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("experiment", help="mean or histogram experiment, one row per mechanism")
    exp = p.add_subparsers(dest="experiment_kind", required=True)

    pm = exp.add_parser("mean", help="synthetic mean estimation (l2 error)")
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--d", type=int, required=True)
    pm.add_argument("--eps", type=float, required=True)
    pm.add_argument("--delta", type=float, required=True)
    pm.add_argument("--trials", type=int, required=True)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--sens", type=float, default=None,
                    help="override the default sensitivity sqrt(d)/n")
    _add_output_flags(pm)
    pm.set_defaults(func=cmd_experiment)

    ph = exp.add_parser("hist", help="categorical histogram (MSE)")
    ph.add_argument("--csv", required=True, metavar="PATH")
    ph.add_argument("--eps", type=float, required=True)
    ph.add_argument("--delta", type=float, required=True)
    ph.add_argument("--trials", type=int, required=True)
    ph.add_argument("--seed", type=int, default=0)
    _add_output_flags(ph)
    ph.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"gaussdp: error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, BracketError) as exc:
        print(f"gaussdp: failed to converge: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
