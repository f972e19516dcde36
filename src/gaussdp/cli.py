"""Command-line front end.

Subcommands: calibrate, compare, profile, region, compose, experiment.
Every command builds its table as a list of row tuples and writes it through
``_emit``: CSV with a header row, or JSON, one object per line.  A CSV line
joins its cells with commas, floats printed as Python's shortest round-trip
repr (so parsing an emitted file recovers the exact values), bools as
true/false and anything else by ``str``, so a Mechanism prints as its tag.
No cell needs quoting: each is a number, a tag, true/false or the classical
warning, none of which holds a comma, quote or newline.  The one other
writer is ``compare``'s CSV, which formats its lines itself so that each
grid value is repr'd once.  Nothing is written until the whole table is
built, so a failing command leaves an existing output file as it was.
``--output`` gets the table as one UTF-8 buffer with ``os.linesep`` line
ends, written over the old file, which is then trimmed to it.
Where each argument after the command (and experiment's kind) is an exact
store or append option and one value, neither empty nor starting with '-',
``_read`` takes the command line by the parsers' own actions, types and
choices.  argparse's top-level parser reads every other one, and writes
every help and error message.
No command sets how closely a root is solved: ``calibrate``, ``compare``
and ``region`` get the library's fixed 1e-12, as its own callers do.
Exit status: 0 on success, 2 on usage or domain errors, 3 on numerical
non-convergence or bracket failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys

from . import __version__
from .calib import (
    BracketError,
    ConvergenceError,
    MECHANISM_ORDER,
    Mechanism,
    NoiseScale,
    PrivacyBudget,
    Sensitivity,
    calibrate,
    compare_grid,
    dp_delta_profile,
    failure_threshold,
    pdp_delta_profile,
    solve_dp_opt,
    solve_pdp_opt,
)
from .compose import CompositionTerm, composed_dp_delta, composed_pdp_delta, effective_unit_sigma
from .mech import histogram_experiment, mean_experiment, read_categorical_counts

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
    try:
        sens, sigma = text.split(":")  # not two parts: a ValueError too
        return float(sens), float(sigma)
    except ValueError:
        raise argparse.ArgumentTypeError(f"term must look like DELTA:SIGMA, got {text!r}")


def _emit(fieldnames: list[str], rows: list[tuple], args) -> None:
    if args.format == "csv":
        text = "".join(
            ",".join("true" if cell is True else "false" if cell is False else str(cell)
                     for cell in row) + "\n"
            for row in [fieldnames, *rows]
        )
    else:
        text = "".join(
            json.dumps(dict(zip(fieldnames, row)), allow_nan=False) + "\n" for row in rows
        )
    _write_text(text, args)


def _write_text(text: str, args) -> None:
    if args.output == "-":
        sys.stdout.write(text)
    else:
        _write_over(args.output, text)


def _write_over(path: str, text: str) -> None:
    """Leave ``path`` holding ``text``, as ``open(path, "w")`` would, but
    write over the old contents and trim them after instead of truncating
    first: on ext4 a file truncated to zero and written again starts
    writeback when closed (the replace-via-truncate safeguard), a disk
    request each time a command rewrites its output file."""
    if os.linesep != "\n":
        text = text.replace("\n", os.linesep)
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        view = memoryview(data)
        while view:  # os.write may take only part of the buffer
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _budget(args) -> PrivacyBudget:
    return PrivacyBudget(args.eps, args.delta)


def cmd_calibrate(args) -> None:
    kind, budget, sens = Mechanism(args.mech), _budget(args), Sensitivity(args.sens)
    # built per call, so that rebinding a solver's module name (as a call
    # tracer does) also reroutes this command
    solver = {Mechanism.DP_OPT: solve_dp_opt, Mechanism.PDP_OPT: solve_pdp_opt}.get(kind)
    if solver is None:
        sigma, iterations, residual = calibrate(kind, budget, sens).sigma, 0, 0.0
    else:
        result = solver(budget, sens)
        sigma, iterations, residual = result.noise.sigma, result.iterations, result.residual
    warning = ""
    if kind in _CLASSICAL and budget.epsilon > 1.0:
        warning = (
            f"epsilon > 1 voids the {kind} guarantee (its proof assumes "
            f"epsilon <= 1); see the region command for the failure frontier"
        )
    _emit(
        ["mechanism", "epsilon", "delta", "sensitivity",
         "sigma", "iterations", "residual", "warning"],
        [(kind, budget.epsilon, budget.delta, sens.l2, sigma, iterations, residual, warning)],
        args,
    )


def cmd_compare(args) -> None:
    rows = compare_grid(args.eps_grid, args.delta_grid, Sensitivity(args.sens))
    fieldnames = ["epsilon", "delta", "mechanism", "sigma", "achieves_dp"]
    if args.format == "json":
        _emit(fieldnames, rows, args)
        return
    # _emit's bytes, but each grid value, tag and flag is formatted once:
    # formatting every cell of a 30x30 grid took three times as long
    grid_text = {value: repr(value) for value in (*args.eps_grid, *args.delta_grid)}
    tag, flag = {kind: f",{kind}," for kind in MECHANISM_ORDER}, {True: ",true", False: ",false"}
    lines = [",".join(fieldnames)]
    lines += [
        f"{grid_text[eps]},{grid_text[delta]}{tag[kind]}{sigma!r}{flag[achieves]}"
        for eps, delta, kind, sigma, achieves in rows
    ]
    lines.append("")
    _write_text("\n".join(lines), args)


def cmd_profile(args) -> None:
    sens = Sensitivity(args.sens)
    noises = (NoiseScale(sigma, Mechanism.DP_OPT) for sigma in args.sigma_grid)
    rows = [
        (n.sigma, dp_delta_profile(n, args.eps, sens), pdp_delta_profile(n, args.eps, sens))
        for n in noises
    ]
    _emit(["sigma", "dp_delta", "pdp_delta"], rows, args)


def cmd_region(args) -> None:
    unit = Sensitivity(1.0)
    rows = []
    for delta in args.delta_grid:
        # F(delta) is the classical sigma at eps = 1 and unit sensitivity
        budget = PrivacyBudget(1.0, delta)
        g_2006, g_2014 = (
            failure_threshold(calibrate(kind, budget, unit).sigma, delta)
            for kind in _CLASSICAL
        )
        rows.append((delta, g_2014, g_2006))
    _emit(["delta", "G_dwork2014", "G_dwork2006"], rows, args)


def cmd_compose(args) -> None:
    terms = [CompositionTerm(Sensitivity(d), s) for d, s in args.term]
    row = (effective_unit_sigma(terms), composed_dp_delta(terms, args.eps),
           composed_pdp_delta(terms, args.eps))
    _emit(["sigma_star", "dp_delta", "pdp_delta"], [row], args)


def cmd_experiment(args) -> None:
    budget = _budget(args)
    if args.experiment_kind == "mean":
        reports = mean_experiment(
            args.n, args.d, budget, MECHANISM_ORDER, args.trials, args.seed,
            sensitivity=args.sens,
        )
    else:
        _, counts = read_categorical_counts(args.csv)
        reports = histogram_experiment(counts, budget, MECHANISM_ORDER, args.trials, args.seed)
    rows = [(r.mechanism, r.trials, r.metric, r.metric_stderr) for r in reports]
    _emit(["mechanism", "trials", "metric", "metric_stderr"], rows, args)


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default: csv)")
    parser.add_argument("--output", default="-", metavar="PATH",
                        help="output path, '-' for stdout (default)")


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


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    # built once per process (parsing keeps no state between calls), with
    # _read's table
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    readers: dict = {}
    for name, command in sub.choices.items():
        _add_reader(readers, (name,), command, {})
    return parser, readers


def _add_reader(readers: dict, words: tuple, parser, before: dict) -> None:
    """Enter under argv ``words`` a parser of help and one-value store or
    append options: its options and the namespace argparse starts it with,
    over ``before``; a parser of help and subcommands (experiment) enters
    those.  argparse reads any other parser's argv."""
    actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    if len(actions) == 1 and isinstance(actions[0], argparse._SubParsersAction):
        for name, child in actions[0].choices.items():
            start = {**before, **parser._defaults, actions[0].dest: name}
            _add_reader(readers, (*words, name), child, start)
    elif not parser._mutually_exclusive_groups and all(
            type(a) in (argparse._StoreAction, argparse._AppendAction) and a.nargs is None
            for a in actions):
        # reversed: the first action of a dest gives its default, as in argparse
        start = {a.dest: a.default for a in reversed(actions)
                 if a.default is not argparse.SUPPRESS}
        readers[words] = (parser, {s: a for a in actions for s in a.option_strings},
                          {**before, **parser._defaults, **start}, len(words))


def _read(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives argv, read with ``_parser``'s table if each
    argument is an exact option string and a value, neither empty nor starting
    with '-', that its type and choices take; else None, for argparse to read."""
    readers = _parser()[1]
    reader = readers.get(tuple(argv[:1])) or readers.get(tuple(argv[:2]))
    if reader is None or (len(argv) - reader[3]) % 2:
        return None
    parser, options, start, depth = reader
    args, seen = argparse.Namespace(**start), set()
    try:
        for option, text in zip(argv[depth::2], argv[depth + 1::2]):
            action = options.get(option)
            if action is None or text[:1] in parser.prefix_chars:  # "" is in it too
                return None
            value = parser._get_value(action, text)
            parser._check_value(action, value)
            action(parser, args, value, option)
            seen.add(action)
        for action in (a for a in parser._actions if a not in seen):  # as argparse does
            if action.required:
                return None
            if (isinstance(action.default, str)
                    and getattr(args, action.dest, None) is action.default):
                setattr(args, action.dest, parser._get_value(action, action.default))
    except argparse.ArgumentError:
        return None
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv)
    if args is None:  # argparse reads it, or prints its help or usage error
        args = _parser()[0].parse_args(argv)
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
