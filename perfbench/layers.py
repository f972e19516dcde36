"""The traced run: per-layer metrics, the tracing overhead and CLI start-up.

A traced run takes every per-layer metric from the workload's pass 0 run
under the tracer, so counts per operation repeat exactly for a fixed seed,
and then alternates untraced and traced passes on fresh inputs until its
time is up, for the tracing overhead.  Per-call timings include the
wrapper's own cost; a function the workload never calls (the frontier on calib-stream, the
RNG on the library workloads, ...) is timed on a short fixed probe instead,
a tiny CLI session covering every command family.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

from bench import (
    CERTIFIED, COMMAND_TIMEOUT_S, MECHANISMS, Certificate, Command, child_env, run_child,
    run_in_process,
)
from tracer import Tracer

# (name, unit, better, the end-to-end metrics the layer should move, where)
PER_LAYER = [
    ("specfun.erfc.calls_per_op", "count", "lower", "ops_per_s, op_tail_ms on calib-stream; ops_per_s on grid-sweep"),
    ("specfun.erfcx.calls_per_op", "count", "lower", "ops_per_s, op_tail_ms on calib-stream; ops_per_s on grid-sweep"),
    ("specfun.inverfc.calls_per_op", "count", "lower", "ops_per_s, op_tail_ms on calib-stream; ops_per_s on grid-sweep"),
    ("specfun.erfcx.us_per_call", "us", "lower", "ops_per_s, op_tail_ms on calib-stream; ops_per_s on grid-sweep"),
    ("specfun.inverfc.us_per_call", "us", "lower", "ops_per_s, op_tail_ms on calib-stream; ops_per_s on grid-sweep"),
    ("specfun.self_frac", "frac", "lower", "ops_per_s, op_tail_ms on calib-stream; ops_per_s on grid-sweep"),
    ("calib.solve_dp_opt.iters_mean", "count", "lower", "op_tail_ms, ops_per_s on calib-stream; ops_per_s on grid-sweep"),
    ("calib.solve_dp_opt.iters_max", "count", "lower", "op_tail_ms, ops_per_s on calib-stream; ops_per_s on grid-sweep"),
    ("calib.solve_pdp_opt.iters_mean", "count", "lower", "op_tail_ms, ops_per_s on calib-stream; ops_per_s on grid-sweep"),
    ("calib.solve_pdp_opt.iters_max", "count", "lower", "op_tail_ms, ops_per_s on calib-stream; ops_per_s on grid-sweep"),
    ("calib.solve_dp_opt.us_p50", "us", "lower", "op_tail_ms, heavy_ms, ops_per_s on calib-stream; ops_per_s on grid-sweep"),
    ("calib.solve_pdp_opt.us_p50", "us", "lower", "op_tail_ms, heavy_ms, ops_per_s on calib-stream; ops_per_s on grid-sweep"),
    ("calib.solve.self_frac", "frac", "lower", "op_tail_ms, ops_per_s on calib-stream; ops_per_s on grid-sweep"),
    ("calib.solve.failures", "count", "lower", "failed on every workload"),
    ("calib.sigma_mech1.us_p50", "us", "lower", "op_p50_ms on calib-stream"),
    ("calib.sigma_mech3.us_p50", "us", "lower", "op_p50_ms on calib-stream"),
    ("calib.closed.us_p50", "us", "lower", "op_p50_ms on calib-stream"),
    ("calib.profile.calls_per_op", "count", "lower", "ops_per_s on grid-sweep"),
    ("calib.profile.us_p50", "us", "lower", "ops_per_s on grid-sweep"),
    ("calib.failure_threshold.inner_solves", "count", "lower", "heavy_ms on grid-sweep only"),
    ("calib.failure_threshold.ms_p50", "ms", "lower", "heavy_ms on grid-sweep only"),
    ("compose.us_p50", "us", "lower", "pass_s on grid-sweep"),
    ("relations.sigma_via_cdp_route.us_p50", "us", "lower", "op_p50_ms on calib-stream"),
    ("rng.generator.calls_per_op", "count", "lower", "heavy_ms on cli-script only"),
    ("rng.generator.us_per_call", "us", "lower", "heavy_ms on cli-script only"),
    ("rng.standard_normal.ns_per_value", "ns", "lower", "heavy_ms on cli-script only"),
    ("mech.read_categorical_csv.calls_per_op", "count", "lower", "heavy_ms on cli-script"),
    ("mech.histogram_counts.us_per_row", "us", "lower", "heavy_ms on cli-script"),
    ("mech.self_frac", "frac", "lower", "heavy_ms on cli-script"),
    ("cli.interpreter_ms", "ms", "lower", "setup_s on every workload"),
    ("cli.import_ms", "ms", "lower", "setup_s on every workload; not the timed passes"),
    ("cli.numpy_loaded_by_calibrate", "count", "lower", "setup_s on every workload"),
    ("cli.main.calibrate.ms_p50", "ms", "lower", "op_p50_ms, op_tail_ms on cli-script"),
    ("cli.main.experiment.ms_p50", "ms", "lower", "heavy_ms on cli-script"),
    ("cli.main.compare.ms_p50", "ms", "lower", "ops_per_s, op_p50_ms on grid-sweep"),
    ("cli.main.region.ms_p50", "ms", "lower", "heavy_ms on grid-sweep"),
    ("cli.main.profile.ms_p50", "ms", "lower", "pass_s on grid-sweep"),
    ("cli.main.compose.ms_p50", "ms", "lower", "pass_s on grid-sweep"),
    ("cert.miss_frac", "frac", "lower", "correctness: certificate misses over certified answers"),
    *((f"cert.miss.{m}", "count", "lower", "correctness: certificate misses of this mechanism") for m in CERTIFIED),
    ("fail_frac", "frac", "lower", "correctness: operations that failed over those attempted"),
    ("trace.overhead_frac", "frac", "lower", "none: traced pass time over untraced, minus one"),
]

CLOSED_FORMS = ("sigma_dwork2006", "sigma_dwork2014", "sigma_mech2", "sigma_mech4")
STARTUP_REPEATS = 5


def probe_commands(gd, workdir) -> list:
    """A tiny fixed CLI session that calls every function a metric times."""
    csv_path = workdir / "probe.csv"
    header, rows = gd.synthetic_census_rows(200, 0)
    gd.mech.write_categorical_csv(csv_path, header, rows)
    argvs = [
        ["calibrate", "--mech", m, "--eps", "1.5", "--delta", "1e-6"] for m in MECHANISMS
    ] + [
        ["compare", "--eps-grid", "0.5,5", "--delta-grid", "1e-8,1e-3"],
        ["region", "--delta-grid", "1e-5"],
        ["profile", "--sigma-grid", "0.5,1,2,4", "--eps", "1"],
        ["compose", "--term", "1:1", "--term", "2:3", "--eps", "1"],
        ["experiment", "mean", "--n", "100", "--d", "5", "--eps", "1", "--delta", "1e-5",
         "--trials", "5", "--seed", "1"],
        ["experiment", "hist", "--csv", str(csv_path), "--eps", "1", "--delta", "1e-5",
         "--trials", "5", "--seed", "1"],
    ]
    return [Command(a[0], a, workdir / f"probe-{i}.csv") for i, a in enumerate(argvs)]


def cli_startup(workdir) -> dict:
    """Fresh-interpreter start-up: bare, with `import gaussdp.cli`, and
    whether a `calibrate` command loads numpy."""

    def wall(code: str) -> float:
        t0 = perf_counter()
        if run_child(["-c", code])[0] != 0:
            raise RuntimeError(f"python -c {code!r} failed")
        return perf_counter() - t0

    bare, imported = [], []
    for _ in range(STARTUP_REPEATS):
        bare.append(wall("pass"))
        imported.append(wall("import gaussdp.cli"))
    out = workdir / "startup-calibrate.csv"
    code = (
        "import sys, gaussdp.cli\n"
        f"gaussdp.cli.main(['calibrate', '--mech', 'dp-opt', '--eps', '1', '--delta', '1e-5', "
        f"'--output', {str(out)!r}])\n"
        "print(int('numpy' in sys.modules))"
    )
    loaded = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                            timeout=COMMAND_TIMEOUT_S, capture_output=True, text=True).stdout.strip()
    interpreter = statistics.median(bare)
    return {
        "cli.interpreter_ms": interpreter * 1e3,
        "cli.import_ms": (statistics.median(imported) - interpreter) * 1e3,
        "cli.numpy_loaded_by_calibrate": float(loaded),
    }


def traced_run(gd, workload, seconds: float, workdir) -> dict:
    """Pass 0 under a tracer gives the per-layer metrics, so every count is
    exact for a fixed seed; then untraced and traced passes alternate, on
    fresh inputs, until ``seconds`` have passed, for the tracing overhead."""
    start = perf_counter()
    tracer = Tracer()
    script, first = workload.traced_pass(0, tracer)
    cert, problems = Certificate(), []
    workload.check(script, first, cert, problems, full=True)
    problems += cert.problems()
    counted_ops = ops = len(script)
    failed = first.failed
    plain_s, traced_s = [], [first.wall]
    k = 1
    while not plain_s or perf_counter() - start < seconds:
        traced = k % 2 == 0
        script, result = workload.traced_pass(k, Tracer() if traced else None)
        (traced_s if traced else plain_s).append(result.wall)
        ops += len(script)
        failed += result.failed
        k += 1

    commands = probe_commands(gd, workdir)
    for cmd in commands:  # warm-up round, untraced
        run_in_process(gd, cmd)
    probe = Tracer()
    with probe:
        codes = [run_in_process(gd, cmd) for cmd in commands]
    problems += [f"probe command {c.argv} failed" for c, code in zip(commands, codes) if code]

    values = layer_values(tracer, probe, counted_ops, first.raw_wall)
    values.update(cli_startup(workdir))
    values["cert.miss_frac"] = cert.miss_frac
    for m in CERTIFIED:
        values[f"cert.miss.{m}"] = float(cert.misses[m])
    values["fail_frac"] = first.failed / counted_ops
    values["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    return {
        "values": values,
        "attempted": ops,
        "failed": failed,
        "problems": problems,
        "cert": cert,
        "samples": {
            "counted_pass_ops": counted_ops,
            "traced_passes": len(traced_s),
            "untraced_passes": len(plain_s),
            "untraced_pass_s": statistics.median(plain_s),
            "traced_pass_s": statistics.median(traced_s),
            "probed": sorted(k for k in probe.stats if probe.get(k) and not tracer.get(k)),
        },
    }


def layer_values(tr: Tracer, probe: Tracer, ops: int, op_seconds: float) -> dict:
    """Per-layer values from the workload's tracer; per-call figures of
    functions the workload never called come from the probe's."""

    def source(*keys):
        return tr if any(tr.get(k) for k in keys) else probe

    def calls_per_op(*keys):
        return sum(s.calls for k in keys if (s := tr.get(k))) / ops

    def per_call(key, scale):
        s = source(key).get(key)
        return s.total_s / s.calls * scale

    def per_unit(key, scale):
        s = source(key).get(key)
        return s.total_s / s.size * scale

    def p50(keys, scale):
        src = source(*keys)
        return statistics.median(d for k in keys if (s := src.get(k)) for d in s.durations) * scale

    def iterations(key):
        its = source(key).get(key).iterations
        return statistics.mean(its), float(max(its))

    v = {}
    for fn in ("erfc", "erfcx", "inverfc"):
        v[f"specfun.{fn}.calls_per_op"] = calls_per_op(f"specfun.{fn}")
    v["specfun.erfcx.us_per_call"] = per_call("specfun.erfcx", 1e6)
    v["specfun.inverfc.us_per_call"] = per_call("specfun.inverfc", 1e6)
    v["specfun.self_frac"] = tr.self_seconds("specfun") / op_seconds
    solvers = ("solve_dp_opt", "solve_pdp_opt")
    for fn in solvers:
        v[f"calib.{fn}.iters_mean"], v[f"calib.{fn}.iters_max"] = iterations(f"calib.{fn}")
        v[f"calib.{fn}.us_p50"] = p50([f"calib.{fn}"], 1e6)
    v["calib.solve.self_frac"] = tr.self_seconds("calib", solvers) / op_seconds
    v["calib.solve.failures"] = float(sum(s.failures for k in solvers if (s := tr.get(f"calib.{k}"))))
    v["calib.sigma_mech1.us_p50"] = p50(["calib.sigma_mech1"], 1e6)
    v["calib.sigma_mech3.us_p50"] = p50(["calib.sigma_mech3"], 1e6)
    v["calib.closed.us_p50"] = p50([f"calib.{fn}" for fn in CLOSED_FORMS], 1e6)
    profiles = ["calib.dp_delta_profile", "calib.pdp_delta_profile"]
    v["calib.profile.calls_per_op"] = calls_per_op(*profiles)
    v["calib.profile.us_p50"] = p50(profiles, 1e6)
    frontier = source("calib.failure_threshold")
    v["calib.failure_threshold.inner_solves"] = (
        frontier.get("calib.solve_dp_opt").nested_in_frontier
        / frontier.get("calib.failure_threshold").calls
    )
    v["calib.failure_threshold.ms_p50"] = p50(["calib.failure_threshold"], 1e3)
    compose = ["compose.effective_unit_sigma", "compose.composed_dp_delta", "compose.composed_pdp_delta"]
    v["compose.us_p50"] = p50(compose, 1e6)
    v["relations.sigma_via_cdp_route.us_p50"] = p50(["relations.sigma_via_cdp_route"], 1e6)
    v["rng.generator.calls_per_op"] = calls_per_op("rng.generator")
    v["rng.generator.us_per_call"] = per_call("rng.generator", 1e6)
    v["rng.standard_normal.ns_per_value"] = per_unit("rng.standard_normal", 1e9)
    v["mech.read_categorical_csv.calls_per_op"] = calls_per_op("mech.read_categorical_csv")
    v["mech.histogram_counts.us_per_row"] = per_unit("mech.histogram_counts", 1e6)
    v["mech.self_frac"] = tr.self_seconds("mech") / op_seconds
    for family in ("calibrate", "experiment", "compare", "region", "profile", "compose"):
        v[f"cli.main.{family}.ms_p50"] = p50([f"cli.main.{family}"], 1e3)
    return v
