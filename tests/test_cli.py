"""CLI surface: flags, table shapes, formats, determinism, exit codes."""

import csv
import io
import json
import math

import pytest

import gaussdp.cli
from gaussdp.cli import main
from gaussdp.mech import read_categorical_csv, synthetic_census_rows, write_categorical_csv


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
    assert abs(float(row["residual"])) <= 1e-9


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


def test_calibrate_unreachable_tol_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "calibrate", "--mech", "dp-opt", "--eps", "1",
        "--delta", "1e-4", "--tol", "1e-40",
    )
    assert code == 3


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


@pytest.mark.parametrize("delta", ["0", "-1e-3", "1.5"])
def test_region_names_delta_bound(capsys, delta):
    code, _, err = run_cli(capsys, "region", f"--delta-grid={delta}")
    assert code == 2
    assert "delta must be in (0, 1)" in err


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


def test_experiment_hist_reads_csv_once(capsys, tmp_path, monkeypatch):
    header, records = synthetic_census_rows(50, seed=3)
    path = tmp_path / "synth.csv"
    write_categorical_csv(path, header, records)
    calls = []

    def counting_read(csv_path):
        calls.append(csv_path)
        return read_categorical_csv(csv_path)

    monkeypatch.setattr(gaussdp.cli, "read_categorical_csv", counting_read)
    code, out, _ = run_cli(
        capsys, "experiment", "hist", "--csv", str(path), "--eps", "1",
        "--delta", "1e-5", "--trials", "2",
    )
    assert code == 0
    assert len(parse_csv(out)) == 9
    assert calls == [str(path)]


def test_experiment_hist_missing_csv_exits_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "experiment", "hist", "--csv", str(tmp_path / "nope.csv"),
        "--eps", "0.1", "--delta", "1e-6", "--trials", "5",
    )
    assert code == 2


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


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["calibrate", "--mech", "bogus", "--eps", "1", "--delta", "1e-4"])
    assert excinfo.value.code == 2
