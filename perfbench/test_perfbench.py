"""Tests of the benchmark itself, on tiny workloads.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import bench
import layers
import run
import speed
from tracer import Tracer

TINY = bench.Size(
    calib_requests=90, compare_shapes=(((0.1, 10.0), 2, (1e-6, 1e-2), 2), ((0.1, 20.0), 3, (1e-10, 1e-2), 1)),
    cli_calibrates=9, cli_hists=1, cli_means=1, census_rows=300, trials=20, mean_n=50, mean_d=3,
)

# Per-layer metrics that are counts (or ratios of counts) and must repeat
# exactly for a fixed seed.
EXACT = [name for name, unit, *_ in layers.PER_LAYER if unit == "count"] + [
    "cert.miss_frac", "fail_frac",
]


@pytest.fixture(scope="module")
def gd():
    return bench.load_gaussdp()


def make(gd, name, workdir, seed=3):
    return bench.WORKLOADS[name](gd, seed, workdir, TINY)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_workload_is_correct_on_the_library(gd, tmp_path, name):
    workload = make(gd, name, tmp_path)
    workload.warm_up()
    out = workload.run(0.0)
    assert out.problems == []
    assert out.failed == 0 and out.attempted > 0
    assert set(out.metrics) == {name for name, *_ in run.END_TO_END} - {"setup_s", "peak_rss_mb"}
    assert all(math.isfinite(v) and v > 0 for v in out.metrics.values())


def test_planted_low_sigma_is_a_certificate_miss(gd, tmp_path, monkeypatch):
    solve = gd.calib.solve_dp_opt

    def too_low(budget, sens, tol=gd.calib.DEFAULT_TOL):
        result = solve(budget, sens, tol)
        noise = gd.NoiseScale(0.99 * result.noise.sigma, result.noise.kind)
        return dataclasses.replace(result, noise=noise)

    monkeypatch.setattr(gd.calib, "solve_dp_opt", too_low)
    workload = make(gd, "calib-stream", tmp_path)
    out = workload.run(0.0)
    assert out.samples["passes"] == TINY.min_passes
    n_dp = sum(1 for k in range(TINY.min_passes) for kind, *_ in workload.script(k) if kind == "dp-opt")
    assert n_dp > 0
    assert out.cert.misses["dp-opt"] == n_dp
    assert out.cert.misses["pdp-opt"] == 0
    assert out.problems, "a miss this large must make the run incorrect"


def test_command_exiting_non_zero_counts_as_failed(gd, tmp_path):
    workload = make(gd, "cli-script", tmp_path)
    bad = ["calibrate", "--mech", "dp-opt", "--eps", "1", "--delta", "2"]
    script = workload.script
    workload.script = lambda k: [*script(k), bench.Command("calibrate", bad, tmp_path / "bad.csv")]
    out = workload.run(0.0)
    passes = out.samples["passes"]
    assert out.failed == passes
    assert out.attempted == passes * len(workload.script(0))
    assert out.problems == []


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_pass_draws_fresh_inputs(gd, tmp_path, name):
    workload = make(gd, name, tmp_path)
    scripts = [workload.script(k) for k in range(3)]
    assert scripts[0] == workload.script(0)
    assert scripts[0] != scripts[1] != scripts[2] != scripts[0]


def test_setup_is_timed_before_every_pass(gd, tmp_path):
    workload = make(gd, "calib-stream", tmp_path)
    times = iter([3.0, 1.0, 2.0, 5.0])
    out = workload.run(0.0, lambda: next(times))
    assert out.samples["setup_repeats"] == out.samples["passes"] == 2
    assert out.metrics["setup_s"] == 2.0


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_fixed_seed_repeats_exact_counts(gd, tmp_path, name):
    values = []
    for i in range(2):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        traced = layers.traced_run(gd, make(gd, name, workdir), 0.0, workdir)
        assert traced["problems"] == []
        values.append({k: traced["values"][k] for k in EXACT})
    assert values[0] == values[1]
    assert set(traced["values"]) == {name for name, *_ in layers.PER_LAYER}


def test_tracer_wraps_every_binding_and_restores_them(gd):
    originals = (gd.specfun.erfc, gd.calib.calibrate)
    with Tracer() as tracer:
        assert gd.calib.erfc is gd.specfun.erfc is not originals[0]
        assert gd.calibrate is gd.mech.calibrate is gd.cli.calibrate is gd.calib.calibrate
        gd.calibrate("dp-opt", gd.PrivacyBudget(1.0, 1e-5), gd.Sensitivity(1.0))
    assert (gd.specfun.erfc, gd.calib.calibrate) == originals
    assert gd.calib.erfc is originals[0]
    assert tracer.get("calib.solve_dp_opt").iterations
    assert tracer.get("specfun.erfc").calls > 0


def test_times_are_scaled_by_the_neighbouring_references():
    # The host runs at half the nominal speed, except for one reference an
    # interrupt hit; each segment takes the median of up to four references.
    refs = iter([2.0, 2.0, 9.0, 2.0, 2.0, 2.0])
    timer = speed.SegmentTimer(lambda: next(refs) * speed.REFERENCE_S)
    for t in (0.4, 0.8, 1.0, 1.0, 1.0):
        timer.record(t * speed.SEGMENT_S)
    times, wall, raw_wall, slowdown = timer.finish()
    assert len(timer.walls) == 4
    assert times == pytest.approx([t * speed.SEGMENT_S / 2.0 for t in (0.4, 0.8, 1.0, 1.0, 1.0)])
    assert wall == pytest.approx(raw_wall / 2.0)
    assert slowdown == 2.0


def test_peak_rss_comes_from_one_pass_in_a_fresh_interpreter():
    assert 10.0 < run.peak_rss_of_one_pass("calib-stream", 1) < 1000.0


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert bench.tail(list(range(1000))) == (99.0, pytest.approx(989.01))
    assert bench.tail(list(range(10)))[0] == 50.0


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        (name, unit, better, bound) for name, unit, better, bound, _ in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER
    ]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calib-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
