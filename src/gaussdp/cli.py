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
The grammar is written once, in ``_GRAMMAR``; argparse's parsers and
``_read``'s tables are both built from it.  Where each argument after the
command (and experiment's kind) is an exact option and one value, neither
empty nor starting with '-', ``_read`` takes the command line by the
table.  argparse's top-level parser reads every other one, and writes
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


# every command's last two options
_OUTPUT_OPTIONS = {
    "--format": dict(choices=("csv", "json"), default="csv", help="output format (default: csv)"),
    "--output": dict(default="-", metavar="PATH", help="output path, '-' for stdout (default)"),
}

# The CLI's one grammar: each command's argv words -> its help, its handler
# and its options, each an option string and its add_argument keywords.
# build_parser builds argparse's parsers from it, and _READERS _read's
# tables, so an option takes only the keywords _read interprets (type,
# choices, required, default, action="append") and help and metavar.
_GRAMMAR = {
    ("calibrate",): ("noise scale for one mechanism", cmd_calibrate, {
        "--mech": dict(required=True, choices=[str(m) for m in MECHANISM_ORDER]),
        "--eps": dict(type=float, required=True),
        "--delta": dict(type=float, required=True),
        "--sens": dict(type=float, default=1.0),
        **_OUTPUT_OPTIONS,
    }),
    ("compare",): ("sigma table for all mechanisms over a grid", cmd_compare, {
        "--eps-grid": dict(type=_parse_grid, required=True),
        "--delta-grid": dict(type=_parse_grid, required=True),
        "--sens": dict(type=float, default=1.0),
        **_OUTPUT_OPTIONS,
    }),
    ("profile",): ("DP/pDP delta profiles over a sigma grid", cmd_profile, {
        "--sigma-grid": dict(type=_parse_grid, required=True),
        "--eps": dict(type=float, required=True),
        "--sens": dict(type=float, default=1.0),
        **_OUTPUT_OPTIONS,
    }),
    ("region",): ("failure frontier G(delta) of the classical mechanisms", cmd_region, {
        "--delta-grid": dict(type=_parse_grid, required=True),
        **_OUTPUT_OPTIONS,
    }),
    ("compose",): ("account a composition of Gaussian mechanisms", cmd_compose, {
        "--term": dict(type=_parse_term, action="append", required=True,
                       metavar="DELTA:SIGMA", help="sensitivity:sigma pair (repeatable)"),
        "--eps": dict(type=float, required=True),
        **_OUTPUT_OPTIONS,
    }),
    ("experiment", "mean"): ("synthetic mean estimation (l2 error)", cmd_experiment, {
        "--n": dict(type=int, required=True),
        "--d": dict(type=int, required=True),
        "--eps": dict(type=float, required=True),
        "--delta": dict(type=float, required=True),
        "--trials": dict(type=int, required=True),
        "--seed": dict(type=int, default=0),
        "--sens": dict(type=float, default=None,
                       help="override the default sensitivity sqrt(d)/n"),
        **_OUTPUT_OPTIONS,
    }),
    ("experiment", "hist"): ("categorical histogram (MSE)", cmd_experiment, {
        "--csv": dict(required=True, metavar="PATH"),
        "--eps": dict(type=float, required=True),
        "--delta": dict(type=float, required=True),
        "--trials": dict(type=int, required=True),
        "--seed": dict(type=int, default=0),
        **_OUTPUT_OPTIONS,
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussdp",
        description="Gaussian noise calibration for (eps, delta)-DP and pDP.",
    )
    parser.add_argument("--version", action="version", version=f"gaussdp {__version__}")
    commands, kinds = parser.add_subparsers(dest="command", required=True), None
    for words, (text, handler, options) in _GRAMMAR.items():
        if len(words) == 2 and kinds is None:  # experiment, after the one-word commands
            experiment = commands.add_parser(
                "experiment", help="mean or histogram experiment, one row per mechanism")
            kinds = experiment.add_subparsers(dest="experiment_kind", required=True)
        command = (commands if len(words) == 1 else kinds).add_parser(words[-1], help=text)
        for option, keywords in options.items():
            command.add_argument(option, **keywords)
        command.set_defaults(func=handler)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process (parsing keeps no state between calls)
    return build_parser()


def _reader(words: tuple, handler, options: dict) -> tuple:
    """_read's table for one command: each option string's dest, type,
    choices and whether it appends; the namespace argparse starts the
    command with; the required option strings; the argv words naming it."""
    start = {"func": handler}
    if len(words) == 2:
        start["experiment_kind"] = words[1]
    fields = {}
    for option, keywords in options.items():
        dest = option[2:].replace("-", "_")
        start[dest] = keywords.get("default")
        fields[option] = (dest, keywords.get("type", str), keywords.get("choices"),
                          keywords.get("action") == "append")
    required = {option for option, keywords in options.items() if keywords.get("required")}
    return fields, start, required, len(words)


_READERS = {words: _reader(words, handler, options)
            for words, (_, handler, options) in _GRAMMAR.items()}


def _read(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives argv, read with ``_READERS`` if each
    argument after the command is an exact option string of it and a value,
    neither empty nor starting with '-', that the option's type and choices
    take, and every required option is given; else None, for argparse to
    read."""
    reader = _READERS.get(tuple(argv[:1])) or _READERS.get(tuple(argv[:2]))
    if reader is None or (len(argv) - reader[3]) % 2:
        return None
    fields, start, required, depth = reader
    values, given = dict(start), set()
    try:
        for option, text in zip(argv[depth::2], argv[depth + 1::2]):
            field = fields.get(option)
            if field is None or text[:1] in ("", "-"):
                return None
            dest, convert, choices, append = field
            value = convert(text)
            if choices is not None and value not in choices:
                return None
            values[dest] = [*(values[dest] or ()), value] if append else value
            given.add(option)
    except (ValueError, TypeError, argparse.ArgumentTypeError):  # as argparse catches
        return None
    return argparse.Namespace(**values) if required <= given else None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv)
    if args is None:  # argparse reads it, or prints its help or usage error
        args = _parser().parse_args(argv)
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
