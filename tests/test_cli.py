"""CLI surface: flags, table shapes, formats, determinism, exit codes."""

import argparse
import csv
import io
import json
import math
import os
import re
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import gaussdp.cli
from gaussdp.calib import (
    BracketError,
    ConvergenceError,
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
    sigma_dwork2006,
    sigma_dwork2014,
    solve_dp_opt,
    solve_pdp_opt,
)
from gaussdp.cli import main
from gaussdp.compose import (
    CompositionTerm,
    composed_dp_delta,
    composed_pdp_delta,
    effective_unit_sigma,
)
from gaussdp.mech import (
    histogram_experiment,
    mean_experiment,
    read_categorical_counts,
    synthetic_census_rows,
    write_categorical_csv,
)
from oracles import oracle_failure_threshold
from test_mech import _NOT_UTF8

UNIT = Sensitivity(1.0)
REPO = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_calibrate_dp_opt_table_row(capsys):
    code, out, _ = run_cli(
        capsys, "calibrate", "--mech", "dp-opt", "--eps", "10",
        "--delta", "0.01", "--sens", "1",
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert abs(float(row["sigma"]) - 0.3501) <= 5e-4
    assert int(row["iterations"]) > 0
    assert -1e-9 <= float(row["residual"]) <= 0.0


def test_calibrate_warns_classical_large_eps(capsys):
    code, out, _ = run_cli(
        capsys, "calibrate", "--mech", "dwork2014", "--eps", "10",
        "--delta", "0.01", "--sens", "1",
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert abs(float(row["sigma"]) - 0.3108) <= 1e-4
    assert "epsilon > 1" in row["warning"]


def test_calibrate_no_warning_small_eps(capsys):
    code, out, _ = run_cli(
        capsys, "calibrate", "--mech", "dwork2014", "--eps", "0.5",
        "--delta", "0.01",
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert row["warning"] == ""


def test_calibrate_mech2_domain_error_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "calibrate", "--mech", "mech2", "--eps", "1",
        "--delta", "0.6", "--sens", "1",
    )
    assert code == 2
    assert "0.5" in err


@pytest.mark.parametrize(
    "name, error, argv",
    [
        ("solve_dp_opt", BracketError,
         ("calibrate", "--mech", "dp-opt", "--eps", "1", "--delta", "1e-4")),
        ("failure_threshold", ConvergenceError, ("region", "--delta-grid", "1e-4")),
    ],
    ids=["calibrate", "region"],
)
def test_solver_failure_exits_3(capsys, monkeypatch, name, error, argv):
    def fail(*args):
        raise error("no root")

    monkeypatch.setattr(gaussdp.cli, name, fail)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "gaussdp: failed to converge: no root\n"


def test_csv_json_agree_exactly(capsys):
    args = ("calibrate", "--mech", "mech1", "--eps", "2", "--delta", "1e-5")
    _, csv_out, _ = run_cli(capsys, *args)
    _, json_out, _ = run_cli(capsys, *args, "--format", "json")
    (csv_row,) = parse_csv(csv_out)
    json_row = json.loads(json_out)
    # shortest round-trip float formatting: parsing recovers the exact value
    assert float(csv_row["sigma"]) == json_row["sigma"]
    assert float(csv_row["residual"]) == json_row["residual"]


def test_compare_shape_and_order(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--eps-grid", "1,15", "--delta-grid", "1e-4",
    )
    assert code == 0
    rows = parse_csv(out)
    order = [
        "dwork2006", "dwork2014", "dp-opt", "mech1", "mech2",
        "pdp-opt", "mech3", "mech4", "cdp-route",
    ]
    assert [r["mechanism"] for r in rows] == order * 2
    assert [r["epsilon"] for r in rows[:9]] == ["1.0"] * 9

    by_eps_mech = {(r["epsilon"], r["mechanism"]): r for r in rows}
    assert by_eps_mech[("15.0", "dwork2014")]["achieves_dp"] == "false"
    assert by_eps_mech[("1.0", "dwork2014")]["achieves_dp"] == "true"
    # dp-opt is the least sigma among mechanisms that actually achieve DP
    for eps in ("1.0", "15.0"):
        achieving = [
            float(r["sigma"])
            for r in rows
            if r["epsilon"] == eps and r["achieves_dp"] == "true"
        ]
        assert min(achieving) == float(by_eps_mech[(eps, "dp-opt")]["sigma"])


def test_compare_dp_opt_is_least_achieving_sigma(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--eps-grid", "0.1,1,5,10,15,20",
        "--delta-grid", "1e-6,1e-4,1e-2",
    )
    assert code == 0
    rows = parse_csv(out)
    cells = {}
    for r in rows:
        cells.setdefault((r["epsilon"], r["delta"]), []).append(r)
    assert len(cells) == 18
    for key, group in cells.items():
        achieving = [float(r["sigma"]) for r in group if r["achieves_dp"] == "true"]
        opt = [float(r["sigma"]) for r in group if r["mechanism"] == "dp-opt"]
        assert min(achieving) == opt[0], key


def test_compare_single_cell_matches_calibrate(capsys):
    _, out, _ = run_cli(
        capsys, "compare", "--eps-grid", "1", "--delta-grid", "1e-4",
    )
    rows = {r["mechanism"]: float(r["sigma"]) for r in parse_csv(out)}
    for mech in rows:
        _, single, _ = run_cli(
            capsys, "calibrate", "--mech", mech, "--eps", "1", "--delta", "1e-4",
        )
        (row,) = parse_csv(single)
        assert float(row["sigma"]) == rows[mech]


def _scalar_compare_records(eps_grid, delta_grid, sens):
    # the compare table as one calibrate and one achieves_dp call per row
    sens = Sensitivity(sens)
    records = []
    for eps in eps_grid:
        for delta in delta_grid:
            budget = PrivacyBudget(eps, delta)
            for kind in MECHANISM_ORDER:
                noise = calibrate(kind, budget, sens)
                records.append({
                    "epsilon": eps, "delta": delta, "mechanism": str(kind),
                    "sigma": noise.sigma, "achieves_dp": achieves_dp(noise, budget, sens),
                })
    return records


def _cell(value):
    # how the CLI rendered a cell when it wrote its tables with csv.writer
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _assert_renders_as_csv_writer(capsys, tmp_path, argv, records):
    # the command's CSV is csv.writer's rendering of the records, to stdout
    # and to --output alike, and its JSON one json.dumps per record
    fieldnames = list(records[0])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fieldnames)
    for record in records:
        writer.writerow([_cell(record[name]) for name in fieldnames])
    assert run_cli(capsys, *argv) == (0, buffer.getvalue(), "")
    path = tmp_path / "table.out"
    assert run_cli(capsys, *argv, "--output", str(path)) == (0, "", "")
    assert path.read_bytes() == buffer.getvalue().encode()
    json_lines = "".join(json.dumps(record) + "\n" for record in records)
    assert run_cli(capsys, *argv, "--format", "json") == (0, json_lines, "")


@pytest.mark.parametrize("sens", [1e-3, 1.0, 1e3])
def test_compare_bytes_equal_csv_writer_rendering(capsys, tmp_path, sens):
    # a duplicated grid value (1 and 1.0), a classical failure (eps 15) and
    # subnormal deltas
    eps_text, delta_text = "1,1.0,15,0.1", "0.1,1e-300,5e-324"
    argv = ("compare", "--eps-grid", eps_text, "--delta-grid", delta_text, "--sens", repr(sens))
    records = _scalar_compare_records(
        [float(v) for v in eps_text.split(",")], [float(v) for v in delta_text.split(",")], sens,
    )
    _assert_renders_as_csv_writer(capsys, tmp_path, argv, records)


_CLASSICAL_WARNING = (
    "epsilon > 1 voids the {} guarantee (its proof assumes epsilon <= 1); "
    "see the region command for the failure frontier"
)


@pytest.mark.parametrize(
    "eps,delta,sens",
    # no warning; the classical warning; sensitivity 0
    [(1.0, 1e-5, 1.0), (10.0, 0.1, 1e-3), (2.0, 1e-4, 0.0)],
    ids=["plain", "warning", "zero-sensitivity"],
)
@pytest.mark.parametrize("kind", MECHANISM_ORDER, ids=str)
def test_calibrate_bytes_equal_csv_writer_rendering(capsys, tmp_path, kind, eps, delta, sens):
    budget, sensitivity = PrivacyBudget(eps, delta), Sensitivity(sens)
    solver = {Mechanism.DP_OPT: solve_dp_opt, Mechanism.PDP_OPT: solve_pdp_opt}.get(kind)
    if solver is None:
        sigma, iterations, residual = calibrate(kind, budget, sensitivity).sigma, 0, 0.0
    else:
        result = solver(budget, sensitivity)
        sigma, iterations, residual = result.noise.sigma, result.iterations, result.residual
    classical = kind in (Mechanism.DWORK2006, Mechanism.DWORK2014)
    record = {
        "mechanism": str(kind), "epsilon": eps, "delta": delta, "sensitivity": sens,
        "sigma": sigma, "iterations": iterations, "residual": residual,
        "warning": _CLASSICAL_WARNING.format(kind) if classical and eps > 1.0 else "",
    }
    argv = ("calibrate", "--mech", str(kind), "--eps", repr(eps), "--delta", repr(delta),
            "--sens", repr(sens))
    _assert_renders_as_csv_writer(capsys, tmp_path, argv, [record])


def _profile_case(tmp_path):
    grid, eps, sens = [0.5, 1.0, 2.0, 4.0], 1.0, Sensitivity(2.5)
    argv = ("profile", "--sigma-grid", "0.5,1,2,4", "--eps", "1", "--sens", "2.5")
    records = []
    for sigma in grid:
        noise = NoiseScale(sigma, Mechanism.DP_OPT)
        records.append({
            "sigma": sigma,
            "dp_delta": dp_delta_profile(noise, eps, sens),
            "pdp_delta": pdp_delta_profile(noise, eps, sens),
        })
    return argv, records


def _region_case(tmp_path):
    # the library and the CLI solve the frontier to one tolerance, so the
    # printed G is failure_threshold's, bit for bit
    deltas = (1e-3, 1e-6, 1e-5, 1e-10, 0.3, 1e-300)
    argv = ("region", "--delta-grid", ",".join(map(repr, deltas)))
    records = []
    for delta in deltas:
        budget = PrivacyBudget(1.0, delta)
        records.append({
            "delta": delta,
            "G_dwork2014": failure_threshold(sigma_dwork2014(budget, UNIT).sigma, delta),
            "G_dwork2006": failure_threshold(sigma_dwork2006(budget, UNIT).sigma, delta),
        })
    return argv, records


def _compose_case(tmp_path):
    argv = ("compose", "--term", "1:1", "--term", "2:2", "--term", "3:3", "--term", "0:5",
            "--eps", "1")
    terms = [CompositionTerm(Sensitivity(d), s) for d, s in ((1, 1), (2, 2), (3, 3), (0, 5))]
    return argv, [{
        "sigma_star": effective_unit_sigma(terms),
        "dp_delta": composed_dp_delta(terms, 1.0),
        "pdp_delta": composed_pdp_delta(terms, 1.0),
    }]


def _report_records(reports):
    return [
        {"mechanism": str(r.mechanism), "trials": r.trials, "metric": r.metric,
         "metric_stderr": r.metric_stderr}
        for r in reports
    ]


def _experiment_mean_case(tmp_path):
    argv = ("experiment", "mean", "--n", "300", "--d", "4", "--eps", "0.5", "--delta", "1e-5",
            "--trials", "30", "--seed", "7")
    reports = mean_experiment(300, 4, PrivacyBudget(0.5, 1e-5), MECHANISM_ORDER, 30, 7)
    return argv, _report_records(reports)


def _experiment_hist_case(tmp_path):
    header, rows = synthetic_census_rows(500, seed=4)
    path = tmp_path / "census.csv"
    write_categorical_csv(path, header, rows)
    argv = ("experiment", "hist", "--csv", str(path), "--eps", "0.5", "--delta", "1e-6",
            "--trials", "30", "--seed", "7")
    _, counts = read_categorical_counts(path)
    reports = histogram_experiment(counts, PrivacyBudget(0.5, 1e-6), MECHANISM_ORDER, 30, 7)
    return argv, _report_records(reports)


def _experiment_hist_quoted_case(tmp_path):
    # csv.writer ends lines with CRLF and quotes the fields that hold a
    # comma, a quote or a line break, so the reader parses every line
    header = ["kind", "note"]
    values = [("a, b", 'say "hi"'), ("two\nlines", "plain"), ("plain", "plain")]
    rows = [values[i % 3] for i in range(60)]
    path = tmp_path / "quoted.csv"
    write_categorical_csv(path, header, rows)
    assert b'\r\n"a, b","say ""hi"""\r\n' in path.read_bytes()
    argv = ("experiment", "hist", "--csv", str(path), "--eps", "0.5", "--delta", "1e-6",
            "--trials", "30", "--seed", "7")
    reports = histogram_experiment(rows, PrivacyBudget(0.5, 1e-6), MECHANISM_ORDER, 30, 7)
    return argv, _report_records(reports)


@pytest.mark.parametrize(
    "case",
    [_profile_case, _region_case, _compose_case, _experiment_mean_case, _experiment_hist_case,
     _experiment_hist_quoted_case],
    ids=["profile", "region", "compose", "experiment-mean", "experiment-hist",
         "experiment-hist-quoted"],
)
def test_command_bytes_equal_csv_writer_rendering(capsys, tmp_path, case):
    argv, records = case(tmp_path)
    _assert_renders_as_csv_writer(capsys, tmp_path, argv, records)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "grid,message",
    [
        # dwork2006's sigma is subnormal at this sensitivity
        pytest.param(
            ("--eps-grid", "1", "--delta-grid", "1e-5", "--sens", "1e-320"),
            "sensitivity 1e-320 is too small for dwork2006 at epsilon=1.0, "
            "delta=1e-05: sigma leaves the normal double range",
            id="tiny-sensitivity",
        ),
        # fails in the grid's second cell, after the first was calibrated
        (("--eps-grid", "1,2", "--delta-grid", "1e-5,0.6"),
         "mechanism 2 requires delta < 0.5, got delta=0.6"),
    ],
)
def test_compare_domain_errors_leave_output_untouched(capsys, tmp_path, fmt, grid, message):
    path = tmp_path / "compare.out"
    path.write_text("old table\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "compare", *grid, "--format", fmt, "--output", str(path))
    assert (code, out, err) == (2, "", f"gaussdp: error: {message}\n")
    assert path.read_text(encoding="utf-8") == "old table\n"


def test_compare_zero_sensitivity_needs_no_noise(capsys):
    argv = ("compare", "--eps-grid", "0.5,1e8", "--delta-grid", "1e-300,0.1,0.49", "--sens", "0")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    rows = parse_csv(out)
    assert len(rows) == 2 * 3 * len(MECHANISM_ORDER)
    assert {(row["sigma"], row["achieves_dp"]) for row in rows} == {("0.0", "true")}
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == len(rows)
    assert {(record["sigma"], record["achieves_dp"]) for record in records} == {(0.0, True)}


def test_noise_comparison_script_rows_equal_compare(capsys, tmp_path):
    script = REPO / "scripts" / "noise_comparison.py"
    out = tmp_path / "noise_comparison.csv"
    assert runpy.run_path(str(script))["main"](["--out", str(out), "--sens", "2.5"]) == 0
    assert capsys.readouterr().out == f"wrote 486 rows to {out}\n"
    code, expected, _ = run_cli(
        capsys, "compare", "--eps-grid", "0.1,1,5,10,15,20",
        "--delta-grid", ",".join(f"1e-{k}" for k in range(10, 1, -1)), "--sens", "2.5",
    )
    assert code == 0
    assert out.read_text(encoding="utf-8") == expected
    assert len(parse_csv(expected)) == 486


def test_profile_table(capsys):
    # include sigma_dp_opt(1, 1e-4) in the grid: its dp_delta inverts to 1e-4
    from gaussdp.calib import PrivacyBudget, Sensitivity, solve_dp_opt

    sigma_opt = solve_dp_opt(PrivacyBudget(1, 1e-4), Sensitivity(1.0)).noise.sigma
    grid = f"2.0,{sigma_opt!r},6.0"
    code, out, _ = run_cli(capsys, "profile", "--sigma-grid", grid, "--eps", "1")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 3
    assert abs(float(rows[1]["dp_delta"]) - 1e-4) <= 1e-9
    for row in rows:
        assert float(row["pdp_delta"]) >= float(row["dp_delta"])
    dp = [float(r["dp_delta"]) for r in rows]
    pdp = [float(r["pdp_delta"]) for r in rows]
    assert dp[0] > dp[1] > dp[2]
    assert pdp[0] > pdp[1] > pdp[2]


def test_profile_single_row(capsys):
    code, out, _ = run_cli(capsys, "profile", "--sigma-grid", "1.5", "--eps", "2")
    assert code == 0
    assert len(parse_csv(out)) == 1


def test_profile_where_sigma_over_sensitivity_underflows(capsys):
    # 1e-300 / 1e300 underflows to 0: the profiles' a -> -inf limit, 1.0
    code, out, err = run_cli(
        capsys, "profile", "--sigma-grid", "1e-300", "--eps", "1", "--sens", "1e300"
    )
    assert (code, err) == (0, "")
    assert parse_csv(out) == [{"sigma": "1e-300", "dp_delta": "1.0", "pdp_delta": "1.0"}]


def test_region_table(capsys):
    code, out, _ = run_cli(capsys, "region", "--delta-grid", "1e-3,1e-4")
    assert code == 0
    rows = parse_csv(out)
    assert abs(float(rows[0]["G_dwork2014"]) - 7.46) <= 0.01
    assert abs(float(rows[0]["G_dwork2006"]) - 8.51) <= 0.01
    assert abs(float(rows[1]["G_dwork2006"]) - 8.99) <= 0.01
    for row in rows:
        assert float(row["G_dwork2006"]) > float(row["G_dwork2014"])
    # frontier recedes (G grows) as delta shrinks
    assert float(rows[1]["G_dwork2014"]) > float(rows[0]["G_dwork2014"])


def test_region_near_delta_one_meets_the_oracle(capsys):
    # 1 - 2^-53: the frontier is solved on the profile's complement there
    code, out, _ = run_cli(capsys, "region", "--delta-grid", "0.9999999999999999")
    assert code == 0
    (row,) = parse_csv(out)
    for kind, name in ((Mechanism.DWORK2014, "G_dwork2014"), (Mechanism.DWORK2006, "G_dwork2006")):
        f = calibrate(kind, PrivacyBudget(1.0, 1 - 2**-53), UNIT).sigma
        assert abs(float(row[name]) - float(oracle_failure_threshold(f, 1 - 2**-53))) <= 1e-12


@pytest.mark.parametrize("delta", ["0", "-1e-3", "1.5"])
def test_region_names_delta_bound(capsys, delta):
    code, _, err = run_cli(capsys, "region", f"--delta-grid={delta}")
    assert code == 2
    assert "delta must be in (0, 1)" in err


def test_parser_built_once_and_reused(capsys, monkeypatch):
    # argparse's parsers are built once per process at most, and never for
    # an argv the table reads
    built = []
    real = gaussdp.cli.build_parser

    def counting_build():
        built.append(1)
        return real()

    monkeypatch.setattr(gaussdp.cli, "build_parser", counting_build)
    gaussdp.cli._parser.cache_clear()
    calibrate = ("calibrate", "--mech", "dp-opt", "--eps", "0.5", "--delta", "1e-6")
    first = run_cli(capsys, *calibrate)
    code, _, err = run_cli(capsys, "region", "--delta-grid", "0")
    assert code == 2
    assert "delta must be in (0, 1)" in err
    assert built == []
    declined = ("calibrate", "--mech", "dp-opt", "--eps=0.5", "--delta", "1e-6")
    assert run_cli(capsys, *declined) == first
    assert run_cli(capsys, *declined) == first
    again = run_cli(capsys, *calibrate)
    assert first[0] == 0
    assert again == first
    assert built == [1]


def test_compose_record(capsys):
    code, out, _ = run_cli(
        capsys, "compose", "--term", "1:1", "--term", "2:2", "--term", "3:3",
        "--eps", "1",
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert abs(float(row["sigma_star"]) - 1.0 / math.sqrt(3.0)) <= 1e-12


def test_compose_m_copies(capsys):
    code, out, _ = run_cli(
        capsys, "compose", "--term", "1:2", "--term", "1:2", "--term", "1:2",
        "--term", "1:2", "--eps", "1",
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert float(row["sigma_star"]) == 1.0


def test_compose_single_calibrated_term(capsys):
    from gaussdp.calib import PrivacyBudget, Sensitivity, solve_dp_opt

    sigma = solve_dp_opt(PrivacyBudget(1, 1e-4), Sensitivity(1.0)).noise.sigma
    code, out, _ = run_cli(capsys, "compose", "--term", f"1:{sigma!r}", "--eps", "1")
    assert code == 0
    (row,) = parse_csv(out)
    assert abs(float(row["dp_delta"]) - 1e-4) <= 1e-9


def test_compose_malformed_term_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["compose", "--term", "nonsense", "--eps", "1"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "--eps-grid", "a,b", "--delta-grid", "1e-5"],
         "argument --eps-grid: not a comma-separated float list: 'a,b'"),
        (["compare", "--eps-grid", ",", "--delta-grid", "1e-5"],
         "argument --eps-grid: grid must contain at least one value"),
        (["compose", "--term", "1:x", "--eps", "1"],
         "argument --term: term must look like DELTA:SIGMA, got '1:x'"),
        (["compose", "--term", "1:2:3", "--eps", "1"],
         "argument --term: term must look like DELTA:SIGMA, got '1:2:3'"),
    ],
    ids=["not-floats", "empty-grid", "term-not-floats", "term-of-three"],
)
def test_malformed_list_arguments_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


def test_compose_squares_outside_the_double_range(capsys):
    assert run_cli(capsys, "compose", "--term", "1:1e-300", "--eps", "1") == (
        0, "sigma_star,dp_delta,pdp_delta\n1e-300,1.0,1.0\n", "",
    )
    for pair, size in (("1e300:1e-10", "small"), ("1e-300:1e300", "large")):
        assert run_cli(capsys, "compose", "--term", pair, "--eps", "1") == (
            2, "", f"gaussdp: error: the composition's sigma_star is too {size}: "
            "it leaves the normal double range\n",
        )


def test_experiment_mean_table(capsys):
    args = (
        "experiment", "mean", "--n", "200", "--d", "5", "--eps", "0.1",
        "--delta", "1e-4", "--trials", "40", "--seed", "1",
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    rows = {r["mechanism"]: float(r["metric"]) for r in parse_csv(out)}
    assert len(rows) == 9
    dp_rows = ["dwork2006", "dwork2014", "dp-opt", "mech1", "mech2"]
    assert min(rows[m] for m in dp_rows) == rows["dp-opt"]
    # byte-identical on repeat invocation
    _, again, _ = run_cli(capsys, *args)
    assert again == out


def test_experiment_hist_table(capsys, tmp_path):
    header, records = synthetic_census_rows(400, seed=3)
    path = tmp_path / "synth.csv"
    write_categorical_csv(path, header, records)
    args = (
        "experiment", "hist", "--csv", str(path), "--eps", "0.1",
        "--delta", "1e-6", "--trials", "40", "--seed", "1",
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    rows = {r["mechanism"]: float(r["metric"]) for r in parse_csv(out)}
    dp_rows = ["dwork2006", "dwork2014", "dp-opt", "mech1", "mech2"]
    assert max(rows[m] for m in dp_rows) == rows["dwork2006"]
    _, again, _ = run_cli(capsys, *args)
    assert again == out


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", ["mean", "hist"])
def test_experiment_non_finite_report_exits_2(capsys, tmp_path, kind, fmt):
    header, records = synthetic_census_rows(200, seed=0)
    write_categorical_csv(tmp_path / "synth.csv", header, records)
    # the mean case's sigmas are all near 1e300; at eps 1e-160 the classical
    # sigmas are about 5e160 and the histogram's MSE is their square
    if kind == "mean":
        args = ("--n", "10", "--d", "3", "--eps", "1e-300", "--delta", "1e-300")
        sigma = "6.441127269719674e+300"
    else:
        args = ("--csv", str(tmp_path / "synth.csv"), "--eps", "1e-160", "--delta", "1e-5")
        sigma = "4.940864832300146e+160"
    path = tmp_path / "report.out"
    path.write_text("old table\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "experiment", kind, *args, "--trials", "3",
        "--format", fmt, "--output", str(path),
    )
    message = f"dwork2006 at sigma={sigma}: its error leaves the double range"
    assert (code, out, err) == (2, "", f"gaussdp: error: {message}\n")
    assert path.read_text(encoding="utf-8") == "old table\n"


def test_json_rejects_non_finite_cells(capsys):
    args = argparse.Namespace(format="json", output="-")
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        gaussdp.cli._emit(["metric"], [(math.inf,)], args)
    assert capsys.readouterr().out == ""


def test_experiment_hist_reads_csv_once(capsys, tmp_path, monkeypatch):
    # the command reads the file straight into record counts, once
    header, records = synthetic_census_rows(50, seed=3)
    path = tmp_path / "synth.csv"
    write_categorical_csv(path, header, records)
    calls = []

    def counting_read(csv_path):
        calls.append(csv_path)
        return read_categorical_counts(csv_path)

    monkeypatch.setattr(gaussdp.cli, "read_categorical_counts", counting_read)
    code, out, _ = run_cli(
        capsys, "experiment", "hist", "--csv", str(path), "--eps", "1",
        "--delta", "1e-5", "--trials", "2",
    )
    assert code == 0
    assert len(parse_csv(out)) == 9
    assert calls == [str(path)]


def test_readme_census_walkthrough(capsys, tmp_path):
    # README's two steps: the script writes the synthetic census, and
    # `experiment hist` reports on it as the library does on the same rows
    script = REPO / "scripts" / "make_synthetic_census.py"
    path = tmp_path / "synth.csv"
    _run_python(str(script), "--rows", "500", "--seed", "0", "--out", str(path))
    argv = ("experiment", "hist", "--csv", str(path), "--eps", "0.1", "--delta", "1e-6",
            "--trials", "200", "--seed", "6")
    _, rows = synthetic_census_rows(500, 0)
    reports = histogram_experiment(rows, PrivacyBudget(0.1, 1e-6), MECHANISM_ORDER, 200, 6)
    _assert_renders_as_csv_writer(capsys, tmp_path, argv, _report_records(reports))


def _readme_block(heading):
    # the first fenced block after the README heading
    text = (REPO / "README.md").read_text(encoding="utf-8").split(heading, 1)[1]
    return text.split("```", 2)[1]


def test_readme_examples_run(capsys, tmp_path):
    # every `gaussdp` line of the CLI block exits 0, so README advertises no
    # flag the CLI lacks; synth.csv is a small census from the script
    path = tmp_path / "synth.csv"
    _run_python(str(REPO / "scripts" / "make_synthetic_census.py"),
                "--rows", "200", "--out", str(path))
    lines = [line for line in _readme_block("## CLI").splitlines()
             if line.startswith("gaussdp ")]
    assert len(lines) == 7
    for line in lines:
        argv = [str(path) if arg == "synth.csv" else arg for arg in shlex.split(line)[1:]]
        assert run_cli(capsys, *argv)[0] == 0, line
    # the quick start runs and gives the sigma and delta it quotes
    quick = _readme_block("## Library quick start").removeprefix("python")
    names = {}
    exec(quick, names)
    quoted = re.search(r"sigma = ([0-9.]+)", quick).group(1)
    assert round(names["opt"].noise.sigma, 5) == float(quoted)
    assert abs(names["delta"] - 0.01) <= 1e-12


def test_experiment_hist_missing_csv_exits_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "experiment", "hist", "--csv", str(tmp_path / "nope.csv"),
        "--eps", "0.1", "--delta", "1e-6", "--trials", "5",
    )
    assert code == 2


# Runs in a fresh interpreter: the commands that only calibrate, then one
# experiment; writes the command output to stdout and, after each phase,
# which modules are loaded as a JSON line to stderr.
_MODULES_SCRIPT = """
import json, sys
if sys.argv[1] == "numpy-first":
    import numpy
import gaussdp.cli

def loaded():
    names = ("numpy", "gaussdp.mech", "gaussdp.rng")
    sys.stderr.write(json.dumps({name: name in sys.modules for name in names}) + "\\n")

for argv in (
    ["calibrate", "--mech", "dp-opt", "--eps", "1", "--delta", "1e-5"],
    ["calibrate", "--mech", "mech1", "--eps", "1", "--delta", "1e-5"],
    ["compare", "--eps-grid", "0.5,1", "--delta-grid", "1e-5,1e-3"],
    ["region", "--delta-grid", "1e-3,1e-4"],
    ["profile", "--sigma-grid", "1.5,3", "--eps", "1"],
    ["compose", "--term", "1:2", "--term", "2:3", "--eps", "1"],
):
    assert gaussdp.cli.main(argv) == 0
loaded()
assert gaussdp.cli.main([
    "experiment", "mean", "--n", "200", "--d", "5", "--eps", "0.5",
    "--delta", "1e-5", "--trials", "20", "--seed", "3",
]) == 0
loaded()
"""


def _run_python(*args):
    # a fresh interpreter that imports gaussdp from this source tree
    src = str(Path(gaussdp.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )


def _run_modules_script(mode):
    done = _run_python("-c", _MODULES_SCRIPT, mode)
    return done.stdout, [json.loads(line) for line in done.stderr.splitlines()]


def test_numpy_loaded_only_by_the_experiments():
    out, (calibrated, experimented) = _run_modules_script("fresh")
    # mech and rng stay loaded (the benchmark's tracer looks them up), but
    # no command that only calibrates imports numpy
    assert calibrated == {"numpy": False, "gaussdp.mech": True, "gaussdp.rng": True}
    assert experimented["numpy"]
    # loading numpy late changes no output byte
    preloaded_out, _ = _run_modules_script("numpy-first")
    assert out == preloaded_out


def test_output_file(capsys, tmp_path):
    path = tmp_path / "out.csv"
    code, out, _ = run_cli(
        capsys, "calibrate", "--mech", "mech4", "--eps", "1", "--delta", "1e-3",
        "--output", str(path),
    )
    assert code == 0
    assert out == ""
    (row,) = parse_csv(path.read_text(encoding="utf-8"))
    assert row["mechanism"] == "mech4"


def test_output_file_written_over_without_truncating(capsys, tmp_path, monkeypatch):
    argv = ("calibrate", "--mech", "mech4", "--eps", "1", "--delta", "1e-3")
    _, table, _ = run_cli(capsys, *argv)
    path = tmp_path / "out.csv"
    path.write_text("x" * 10_000 + "\n", encoding="utf-8")
    flags = []
    real_open = os.open

    def recording_open(file, flag, *rest):
        flags.append(flag)
        return real_open(file, flag, *rest)

    monkeypatch.setattr(os, "open", recording_open)
    for _ in range(2):  # over a longer old file, then over the same table
        code, out, _ = run_cli(capsys, *argv, "--output", str(path))
        assert (code, out) == (0, "")
        assert path.read_text(encoding="utf-8") == table
    assert len(flags) == 2
    assert not any(flag & os.O_TRUNC for flag in flags)


def test_output_to_a_device(capsys):
    code, out, _ = run_cli(
        capsys, "calibrate", "--mech", "mech4", "--eps", "1", "--delta", "1e-3",
        "--output", os.devnull,
    )
    assert (code, out) == (0, "")


# one short command per subcommand; "x.csv" stands for a census file
EVERY_COMMAND = {
    "calibrate": ("calibrate", "--mech", "dp-opt", "--eps", "1", "--delta", "1e-5"),
    "compare": ("compare", "--eps-grid", "1", "--delta-grid", "1e-5"),
    "region": ("region", "--delta-grid", "1e-5"),
    "profile": ("profile", "--sigma-grid", "1", "--eps", "1"),
    "compose": ("compose", "--term", "1:1", "--eps", "1"),
    "experiment-mean": ("experiment", "mean", "--n", "10", "--d", "2", "--eps", "1",
                        "--delta", "1e-5", "--trials", "1"),
    "experiment-hist": ("experiment", "hist", "--csv", "x.csv", "--eps", "1",
                        "--delta", "1e-5", "--trials", "1"),
}


@pytest.mark.parametrize("argv", EVERY_COMMAND.values(), ids=EVERY_COMMAND.keys())
def test_no_command_takes_tol(capsys, argv):
    # every root is solved to the library's fixed tolerance
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--tol", "5"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --tol 5" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ("profile", "--eps", "1", "--sigma-grid", "{}"),
        ("calibrate", "--mech", "mech4", "--eps", "1", "--delta", "1e-5", "--sens", "{}"),
        ("calibrate", "--mech", "mech4", "--eps", "{}", "--delta", "1e-5"),
        ("compose", "--eps", "1", "--term", "1:{}"),
        ("compose", "--eps", "1", "--term", "{}:1"),
    ],
    ids=["profile-sigma", "calibrate-sens", "calibrate-eps", "compose-sigma", "compose-sens"],
)
def test_non_finite_input_is_named_finite(capsys, argv, value):
    code, out, err = run_cli(capsys, *(arg.format(value) for arg in argv))
    assert (code, out) == (2, "")
    assert "must be finite and" in err and f"got {value}" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["calibrate", "--mech", "bogus", "--eps", "1", "--delta", "1e-4"])
    assert excinfo.value.code == 2


def test_experiment_hist_oversized_field_exits_2(capsys, tmp_path):
    # a field over csv.field_size_limit() is a domain error naming the file,
    # not a traceback, and the output file is left as it was
    path = tmp_path / "big.csv"
    path.write_text("a,b\n" + "x" * 140_000 + ",y\n", encoding="utf-8")
    out_path = tmp_path / "hist.out"
    out_path.write_text("old table\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "experiment", "hist", "--csv", str(path), "--eps", "1",
        "--delta", "1e-5", "--trials", "2", "--output", str(out_path),
    )
    assert (code, out) == (2, "")
    assert err == f"gaussdp: error: {path}: field larger than field limit (131072)\n"
    assert out_path.read_text(encoding="utf-8") == "old table\n"


def test_experiment_hist_non_utf8_names_file_and_line(capsys, tmp_path):
    # a byte that is not UTF-8 is a domain error naming the file and its
    # line, not the offset inside a decoder's chunk
    header, records = synthetic_census_rows(10_000, seed=1)
    path = tmp_path / "latin1.csv"
    write_categorical_csv(path, header, records)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[5001] = lines[5001].replace(b"e", b"\xe9", 1)
    path.write_bytes(b"".join(lines))
    code, out, err = run_cli(
        capsys, "experiment", "hist", "--csv", str(path), "--eps", "1",
        "--delta", "1e-5", "--trials", "2",
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"gaussdp: error: {path}:5002: not valid UTF-8 (byte 0xe9 at column ")


@pytest.mark.parametrize("data, lineno", _NOT_UTF8.values(), ids=_NOT_UTF8.keys())
def test_experiment_hist_not_utf8_names_its_line(capsys, tmp_path, data, lineno):
    # each line ending and quoting the reader's line count covers, as the
    # command reports it
    path = tmp_path / "records.csv"
    path.write_bytes(data)
    code, out, err = run_cli(
        capsys, "experiment", "hist", "--csv", str(path), "--eps", "1",
        "--delta", "1e-5", "--trials", "2",
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"gaussdp: error: {path}:{lineno}: not valid UTF-8 ")


def _reference_main(argv):
    # the reference dispatch: the top-level parser reads every argument and
    # hands the rest to the command's parser; then main's except clauses
    args = gaussdp.cli.build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"gaussdp: error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, BracketError) as exc:
        print(f"gaussdp: failed to converge: {exc}", file=sys.stderr)
        return 3
    return 0


def _outcome(run, argv, capsysbinary):
    try:
        code = run(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


# the argv of each `gaussdp` line of README's CLI block
_README_ARGVS = [tuple(shlex.split(line)[1:]) for line in _readme_block("## CLI").splitlines()
                 if line.startswith("gaussdp ")]
_DISPATCH_CASES = [
    *_README_ARGVS,
    *((*argv, "--tol", "5") for argv in EVERY_COMMAND.values()),
    (), ("--version",), ("-h",), ("calibrat",),
    ("--format", "json", *EVERY_COMMAND["calibrate"]),
    ("calibrate", "-h"),
    ("calibrate", "--mech", "nope", "--eps", "1", "--delta", "1e-5"),
    ("calibrate", "--mech", "dp-opt", "--delta", "1e-5"),
    ("calibrate", "--mech", "dp-opt", "--eps", "abc", "--delta", "1e-5"),
    ("calibrate", "--me", "dp-opt", "--eps", "1", "--delta", "1e-5"),
    (*EVERY_COMMAND["calibrate"], "--", "x"),
    ("experiment",),
    ("experiment", "mean", "-h"),
    ("experiment", "hist", "-h"),
    # forms the table declines: argparse reads them, as before
    ("calibrate", "--mech", "dp-opt", "--eps=1", "--delta", "1e-5"),
    (*EVERY_COMMAND["calibrate"], "--output", "-"),
    ("calibrate", "--mech", "dp-opt", "--eps", "-1", "--delta", "1e-5"),
    (*EVERY_COMMAND["calibrate"], "--output", ""),
    (*EVERY_COMMAND["calibrate"], "--sens"),
    (*EVERY_COMMAND["calibrate"], "--format", "xml"),
    ("calibrate", "--mech", "nope", "--mech", "dp-opt", "--eps", "1", "--delta", "1e-5"),
    ("experiment", "mean", "--n=50", "--d", "2", "--eps", "1", "--delta", "1e-5",
     "--trials", "1"),
    ("compose", "--term=1:1", "--eps", "1"),
]


@pytest.mark.parametrize("argv", _DISPATCH_CASES, ids=" ".join)
def test_dispatch_matches_the_top_level_parse(capsysbinary, tmp_path, argv):
    # the same exit code, stdout bytes and stderr bytes as parsing everything
    # with the top-level parser, for commands, help, and usage errors
    header, records = synthetic_census_rows(200, seed=0)
    census = tmp_path / "synth.csv"
    write_categorical_csv(census, header, records)
    argv = [str(census) if arg in ("synth.csv", "x.csv") else arg for arg in argv]
    expected = _outcome(_reference_main, argv, capsysbinary)
    assert _outcome(main, argv, capsysbinary) == expected


def _joined(argv):
    # each "--option value" pair written "--option=value"
    words, pairs = [], iter(argv)
    for word in pairs:
        words.append(f"{word}={next(pairs)}" if word.startswith("--") else word)
    return tuple(words)


def _abbreviated(argv):
    # each option cut to its first two letters, a prefix argparse takes
    return tuple(word[:4] if word.startswith("--") else word for word in argv)


@pytest.mark.parametrize("form", [_joined, _abbreviated], ids=["joined", "abbreviated"])
@pytest.mark.parametrize("argv", EVERY_COMMAND.values(), ids=EVERY_COMMAND.keys())
def test_declined_form_prints_what_the_table_form_prints(capsysbinary, tmp_path, argv, form):
    # the table declines these spellings and argparse's top-level parse reads
    # them, to the exit code and bytes of the spelling the table reads
    header, records = synthetic_census_rows(200, seed=0)
    census = tmp_path / "x.csv"
    write_categorical_csv(census, header, records)
    argv = tuple(str(census) if arg == "x.csv" else arg for arg in argv)
    assert gaussdp.cli._read(list(form(argv))) is None
    expected = _outcome(main, argv, capsysbinary)
    assert expected[0] == 0
    assert _outcome(main, form(argv), capsysbinary) == expected


@pytest.mark.parametrize("name, argv", EVERY_COMMAND.items(), ids=EVERY_COMMAND.keys())
def test_each_command_parsed_once_and_written_by_os_write(tmp_path, monkeypatch, name, argv):
    # a well-formed command is read with the grammar table, so argparse
    # parses nothing
    header, records = synthetic_census_rows(50, seed=3)
    write_categorical_csv(tmp_path / "x.csv", header, records)
    argv = [str(tmp_path / "x.csv") if arg == "x.csv" else arg for arg in argv]
    parses, writes = [], []
    real_parse, real_write = argparse.ArgumentParser.parse_known_args, os.write

    def counting_parse(self, *args, **kwargs):
        parses.append(self.prog)
        return real_parse(self, *args, **kwargs)

    def recording_write(fd, data):
        writes.append(bytes(data))
        return real_write(fd, data)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse)
    monkeypatch.setattr(os, "write", recording_write)
    path = tmp_path / "out.csv"
    assert main([*argv, "--output", str(path)]) == 0
    assert parses == []
    assert b"".join(writes) == path.read_bytes()


def test_output_survives_partial_writes(capsys, tmp_path, monkeypatch):
    # os.write takes at most 4096 bytes a call; a 30x30 table written over a
    # longer file equals the table on stdout
    eps_grid = ",".join(repr(10.0 ** (k / 10)) for k in range(-15, 15))
    delta_grid = ",".join(repr(10.0 ** (-k / 2.5)) for k in range(3, 33))
    argv = ("compare", "--eps-grid", eps_grid, "--delta-grid", delta_grid)
    code, table, _ = run_cli(capsys, *argv)
    assert code == 0
    data = table.encode("utf-8")
    assert len(data) > 300_000
    path = tmp_path / "out.csv"
    path.write_bytes(b"x" * (len(data) + 100_000))
    calls = []
    real_write = os.write

    def short_write(fd, buf):
        calls.append(1)
        return real_write(fd, buf[:4096])

    monkeypatch.setattr(os, "write", short_write)
    code, out, _ = run_cli(capsys, *argv, "--output", str(path))
    assert (code, out) == (0, "")
    assert path.read_bytes() == data
    assert len(calls) == -(-len(data) // 4096)


def _fields(args):
    # each field's repr, so that nan equals nan and 1 differs from 1.0
    return {key: repr(value) for key, value in vars(args).items()}


def _table_read(monkeypatch, argv):
    # gaussdp.cli._read, failing if it builds an argparse parser or parses
    def fail(*args, **kwargs):
        pytest.fail("argparse used")

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "__init__", fail)
        patch.setattr(argparse.ArgumentParser, "parse_known_args", fail)
        return gaussdp.cli._read(list(argv))


def _argparse_read(argv):
    # what argparse gives argv: its command's parser reads the rest
    parser = gaussdp.cli._parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    args, extra = sub.choices[argv[0]].parse_known_args(list(argv[1:]))
    assert extra == []
    return args


_READ_CASES = [
    *EVERY_COMMAND.values(),
    *_README_ARGVS,
    ("calibrate", "--mech", "mech1", "--eps", "2", "--delta", "1e-5", "--mech", "dp-opt",
     "--eps", "0.5"),
    ("compose", "--term", "1:1", "--eps", "2", "--term", "2:0.5", "--term", "1:1", "--eps", "1"),
    (*EVERY_COMMAND["calibrate"], "--sens", "1.0", "--format", "csv"),
    (*EVERY_COMMAND["experiment-hist"], "--seed", "0", "--format", "json", "--output", "out.csv"),
    (*EVERY_COMMAND["compare"], "--format", "json", "--output", "out.csv", "--format", "csv"),
    ("calibrate", "--mech", "mech4", "--eps", "nan", "--delta", "inf", "--sens", "inf"),
    ("profile", "--sigma-grid", "nan,inf,1", "--eps", "inf"),
    ("experiment", "mean", "--n", "1_0", "--d", "2", "--eps", "1_0", "--delta", "1e-5",
     "--trials", "1", "--seed", "1_0"),
    ("calibrate", "--mech", "dp-opt", "--eps", " 1 ", "--delta", "1e-5 ", "--sens", "\t2"),
    ("compose", "--term", " 1 : 2 ", "--eps", " 1"),
    (*EVERY_COMMAND["experiment-mean"], "--sens", "0.5"),
]


@pytest.mark.parametrize("argv", _READ_CASES, ids=" ".join)
def test_table_reads_as_argparse(monkeypatch, argv):
    # a well-formed argv is read without argparse, to the namespace it gives
    args = _table_read(monkeypatch, argv)
    assert args is not None
    assert _fields(args) == _fields(_argparse_read(argv))


def _command_parsers(parser, words=()):
    # (argv words, parser) of each command, experiment's mean and hist included
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield words, parser
    for sub in subs:
        for name, child in sub.choices.items():
            yield from _command_parsers(child, (*words, name))


# one value for each store or append option of the grammar, by dest
_OPTION_VALUES = {
    "mech": "mech2", "eps": "2", "delta": "1e-3", "sens": "3", "eps_grid": "1,2",
    "delta_grid": "1e-3", "sigma_grid": "2", "term": "2:3", "n": "20", "d": "3",
    "trials": "2", "seed": "7", "csv": "y.csv", "format": "json", "output": "out.csv",
}


def test_every_store_or_append_option_is_read(monkeypatch):
    commands = list(_command_parsers(gaussdp.cli.build_parser()))
    assert len(commands) == 7
    for words, command in commands:
        actions = [a for a in command._actions
                   if type(a) in (argparse._StoreAction, argparse._AppendAction)]
        required = [word for a in actions if a.required
                    for word in (a.option_strings[0], _OPTION_VALUES[a.dest])]
        for action in actions:
            for option in action.option_strings:
                argv = (*words, *required, option, _OPTION_VALUES[action.dest])
                args = _table_read(monkeypatch, argv)
                assert args is not None, argv
                assert _fields(args) == _fields(_argparse_read(argv))


# the add_argument keywords _read interprets, and the two only argparse's
# help reads
_TABLE_KEYWORDS = {"type", "choices", "required", "default", "action", "help", "metavar"}


@pytest.mark.parametrize("words", list(gaussdp.cli._GRAMMAR), ids=" ".join)
def test_parser_is_built_from_the_grammar_table(monkeypatch, words):
    options = gaussdp.cli._GRAMMAR[words][2]
    for option, keywords in options.items():
        assert set(keywords) <= _TABLE_KEYWORDS, option
        assert keywords.get("action", "append") == "append", option
        # argparse converts a str default by the option's type, _read does not
        assert not (isinstance(keywords.get("default"), str) and "type" in keywords), option
    # the built parser has the table's option strings, in its order
    command = dict(_command_parsers(gaussdp.cli.build_parser()))[words]
    assert [s for a in command._actions for s in a.option_strings] == ["-h", "--help", *options]

    # an option added to a built parser outside the table is left to argparse
    real = gaussdp.cli.build_parser

    def build_with_option():
        parser = real()
        dict(_command_parsers(parser))[words].add_argument("--scale", type=float)
        return parser

    monkeypatch.setattr(gaussdp.cli, "build_parser", build_with_option)
    gaussdp.cli._parser.cache_clear()
    try:
        argv = (*EVERY_COMMAND["-".join(words)], "--scale", "3")
        assert _table_read(monkeypatch, argv) is None
        assert _argparse_read(argv).scale == 3.0
    finally:
        gaussdp.cli._parser.cache_clear()
