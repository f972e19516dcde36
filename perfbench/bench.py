"""The benchmark's three workloads: seeded inputs, timed passes and output checks.

A run repeats passes until its time is up.  Every pass draws fresh inputs
from the seed and the pass index, so no input repeats within a run and
state carried across requests cannot read as a gain.  Each pass yields its
own figures (throughput as operations over wall time, latency percentiles
within the pass); a run reports the median of each figure over its passes.
Every time is scaled to a nominal host speed by a reference kernel timed
between stretches of operations (see `speed.py`); the measured wall time of
each pass and the host's slowdown are kept in the report.
Operations run one at a time from a single thread (closed loop, one
caller): the machine this was tuned on has two cores.  Between passes the
runner may time a complete set-up in a fresh interpreter (`setup_s`).

* calib-stream: one `calibrate` request at a time, as a DP library calls it.
* grid-sweep:   `compare`, `region`, `profile` and `compose` through
                `gaussdp.cli.main` in-process, on the grid shapes the
                repository itself uses; every input is known up front.
* cli-script:   `calibrate`, `experiment mean` and `experiment hist`
                through `gaussdp.cli.main` in-process.

Outputs are checked between passes, outside the timed region.  Each
certified answer (every mechanism but the two classical ones) is checked
against its exact privacy profile; misses are counted, per mechanism, rather
than failing the run, unless the profile exceeds delta by more than a
relative 1e-9 or an optimal solver's answer is not tight.  The costlier
checks (equality with library calls, the statistical check of experiments,
byte-identical repeats) run on the first `min_passes` passes, which every
run makes, so that whether a seed passes does not depend on the run's speed.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
import statistics
import subprocess
import sys
import threading
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import SegmentTimer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MECHANISMS = (
    "dwork2006", "dwork2014", "dp-opt", "mech1", "mech2",
    "pdp-opt", "mech3", "mech4", "cdp-route",
)
CERTIFIED = MECHANISMS[2:]
PDP_CERTIFIED = ("pdp-opt", "mech3", "mech4")
OPTIMAL = ("dp-opt", "pdp-opt")
# A certificate miss larger than this (relative to delta) is a wrong answer,
# not a rounding slip at the boundary; neither is an optimal sigma that can be
# lowered by this factor and still pass.
GROSS_MISS = 1e-9
TIGHTNESS = 1e-9

# A child interpreter still running after this long is killed.
COMMAND_TIMEOUT_S = 60.0

# The request distribution: the union of the ranges used by the README, the
# scripts and the test suite, with some margin.
EPS_RANGE = (1e-2, 50.0)
DELTA_RANGE = (1e-12, 1e-1)
SENS_RANGE = (1e-3, 1e3)

# The `compare` grids the repository runs, as (eps range, eps values, delta
# range, delta values); each pass jitters every value within its stratum.
COMPARE_SHAPES = (
    ((0.1, 10.0), 4, (1e-6, 1e-2), 3),  # README: 0.1,1,5,10 x 1e-6,1e-4,1e-2
    ((0.1, 20.0), 6, (1e-10, 1e-2), 9),  # scripts/noise_comparison.py
    (EPS_RANGE, 30, DELTA_RANGE, 30),  # ROADMAP: the 30x30x9 target grid
)
# README: `region --delta-grid 1e-3,1e-4,1e-5,1e-6`.
REGION_SHAPE = ((1e-6, 1e-3), 4)
# README: `profile --sigma-grid 0.5,1,2,4 --eps 1`.
PROFILE_SHAPE = ((0.5, 4.0), 4)
# README: `compose --term 1:1 --term 2:2 --term 3:3 --eps 1`.
COMPOSE_TERMS = 3


@dataclass(frozen=True)
class Size:
    """How much work one pass holds; the tests shrink it."""

    calib_requests: int = 10_000
    compare_shapes: tuple = COMPARE_SHAPES
    cli_calibrates: int = 180
    cli_hists: int = 2
    cli_means: int = 1
    census_rows: int = 10_000
    trials: int = 200
    mean_n: int = 1000
    mean_d: int = 10
    min_passes: int = 2


def load_gaussdp():
    """Import gaussdp from this checkout's src/, and nowhere else."""
    if not (SRC / "gaussdp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gaussdp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gaussdp
    import gaussdp.cli  # noqa: F401  (the tracer needs every layer loaded)

    if Path(gaussdp.__file__).resolve().parent != (SRC / "gaussdp").resolve():
        raise SystemExit(f"perfbench: imported gaussdp from {gaussdp.__file__}")
    return gaussdp


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_child(argv: list, timeout: float = COMMAND_TIMEOUT_S):
    """Run a Python child (gaussdp importable) to completion and return
    (exit code, its resource usage).  The wait is a blocking wait4, not the
    sleep-polling of subprocess's timed wait, which would round wall times
    up to 50 ms steps; a watchdog kills a child that outlives ``timeout``."""
    proc = subprocess.Popen(
        [sys.executable, *argv], env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


# ---------------------------------------------------------------------------
# statistics and inputs


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of a non-empty sequence."""
    data = sorted(values)
    pos = (len(data) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail(values) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with ten samples beyond
    it, 100 (1 - 10/n); p50 when there are fewer than twenty samples."""
    p = max(50.0, 100.0 * (1.0 - 10.0 / len(values)))
    return p, percentile(values, p)


def pass_rng(seed: int, k) -> random.Random:
    """The generator of pass k's inputs (``k`` may also name a warm-up)."""
    return random.Random(f"{seed}/{k}")


def loguniform(rng: random.Random, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def jittered_grid(rng: random.Random, bounds: tuple[float, float], n: int) -> list[float]:
    """n log-spaced values, each drawn uniformly within its own stratum."""
    lo, hi = math.log(bounds[0]), math.log(bounds[1])
    width = (hi - lo) / n
    return [math.exp(lo + (i + rng.random()) * width) for i in range(n)]


def draw_requests(rng: random.Random, n: int) -> list[tuple[str, float, float, float]]:
    """n requests; every mechanism gets n/9 of them (in shuffled order), so
    the mix, which sets most of the cost, is the same for every seed."""
    kinds = [MECHANISMS[i % len(MECHANISMS)] for i in range(n)]
    rng.shuffle(kinds)
    return [
        (kind, loguniform(rng, EPS_RANGE), loguniform(rng, DELTA_RANGE), loguniform(rng, SENS_RANGE))
        for kind in kinds
    ]


# ---------------------------------------------------------------------------
# certificate


@dataclass
class Certificate:
    """Tally of certificate checks over certified answers."""

    checked: dict = field(default_factory=lambda: dict.fromkeys(CERTIFIED, 0))
    misses: dict = field(default_factory=lambda: dict.fromkeys(CERTIFIED, 0))
    gross: list = field(default_factory=list)
    loose: list = field(default_factory=list)
    worst_excess: float = 0.0

    def check(self, gd, kind: str, eps: float, delta: float, sens: float, sigma: float) -> None:
        if kind not in self.checked:
            return
        profile = gd.pdp_delta_profile if kind in PDP_CERTIFIED else gd.dp_delta_profile
        mech = gd.Mechanism(kind)
        s = gd.Sensitivity(sens)
        achieved = profile(gd.NoiseScale(sigma, mech), eps, s)
        self.checked[kind] += 1
        if achieved > delta:
            self.misses[kind] += 1
            excess = (achieved - delta) / delta
            self.worst_excess = max(self.worst_excess, excess)
            if excess > GROSS_MISS:
                self.gross.append((kind, eps, delta, sens, sigma, achieved))
        if kind in OPTIMAL and not profile(gd.NoiseScale(sigma * (1.0 - TIGHTNESS), mech), eps, s) > delta:
            self.loose.append((kind, eps, delta, sens, sigma))

    @property
    def miss_frac(self) -> float:
        return sum(self.misses.values()) / max(1, sum(self.checked.values()))

    def problems(self) -> list[str]:
        out = [f"certificate missed by more than {GROSS_MISS:g}: {g}" for g in self.gross[:5]]
        out += [f"optimal sigma not tight to {TIGHTNESS:g}: {g}" for g in self.loose[:5]]
        return out

    def report(self) -> dict:
        return {
            "miss_frac": self.miss_frac,
            "checked": dict(self.checked),
            "misses": dict(self.misses),
            "worst_relative_excess": self.worst_excess,
            "gross_misses": len(self.gross),
            "not_tight": len(self.loose),
        }


# ---------------------------------------------------------------------------
# runs


@dataclass
class Pass:
    """One timed pass over a script of operations."""

    times: list  # per operation, seconds at the nominal host speed
    answers: list  # per operation: sigma, or output bytes (None if it failed)
    wall: float  # wall time of the pass, seconds at the nominal host speed
    failed: int
    raw_wall: float  # wall time of the pass as measured, seconds
    slowdown: float  # the host's median slowdown against the nominal speed


@dataclass
class Outcome:
    """What a run hands back to the runner."""

    metrics: dict  # end-to-end metric name -> median over passes
    per_pass: dict  # end-to-end metric name (and raw_pass_s, host_slowdown) -> its value on each pass
    samples: dict  # sample counts and recorded tail percentiles
    attempted: int
    failed: int
    problems: list  # failed output checks; the run is correct when empty
    cert: Certificate


class Workload:
    """A seeded script of operations per pass; subclasses say what an
    operation is (``script``, ``run_pass``), what a pass measures
    (``figures``) and how its outputs are checked (``check``)."""

    name: str
    samples: dict  # fixed per-pass sample counts, for the report

    def __init__(self, gd, seed: int, workdir: Path, size: Size) -> None:
        self.gd, self.seed, self.workdir, self.size = gd, seed, workdir, size

    def run(self, seconds: float, time_setup=None) -> Outcome:
        """Passes until ``seconds`` have passed (at least ``min_passes``),
        each preceded by a timed set-up when ``time_setup`` is given."""
        figures, setups, tails = {}, [], set()
        host = {"raw_pass_s": [], "host_slowdown": []}
        cert, problems = Certificate(), []
        passes = attempted = failed = 0
        start = perf_counter()
        while passes < self.size.min_passes or perf_counter() - start < seconds:
            if time_setup is not None:
                setups.append(time_setup())
            script = self.script(passes)
            result = self.run_pass(script)
            attempted += len(script)
            failed += result.failed
            values, tail_p = self.figures(script, result)
            tails.add(tail_p)
            host["raw_pass_s"].append(result.raw_wall)
            host["host_slowdown"].append(result.slowdown)
            for name, value in values.items():
                figures.setdefault(name, []).append(value)
            self.check(script, result, cert, problems, full=passes < self.size.min_passes)
            passes += 1
        metrics = {name: statistics.median(values) for name, values in figures.items()}
        if setups:
            metrics["setup_s"] = statistics.median(setups)
            figures["setup_s"] = setups
        samples = dict(self.samples, passes=passes, setup_repeats=len(setups),
                       tail_percentile=sorted(tails),
                       **{name: statistics.median(v) for name, v in host.items()})
        return Outcome(metrics, dict(figures, **host), samples, attempted, failed,
                       problems + cert.problems(), cert)

    def traced_pass(self, k: int, tracer) -> tuple[list, Pass]:
        """Pass k, under the tracer if one is given: (its script, its result)."""
        script = self.script(k)
        with tracer or nullcontext():
            return script, self.run_pass(script)


# ---------------------------------------------------------------------------
# calib-stream


class CalibStream(Workload):
    """Single `calibrate` requests, one at a time."""

    name = "calib-stream"

    def __init__(self, gd, seed: int, workdir: Path, size: Size) -> None:
        super().__init__(gd, seed, workdir, size)
        self.samples = {"requests_per_pass": size.calib_requests}

    def script(self, k) -> list:
        return draw_requests(pass_rng(self.seed, k), self.size.calib_requests)

    def warm_up(self) -> None:
        self.run_pass(draw_requests(pass_rng(self.seed, "warm-up"), 300))

    def run_pass(self, requests) -> Pass:
        gd = self.gd
        calibrate, budget_of, sens_of = gd.calibrate, gd.PrivacyBudget, gd.Sensitivity
        kinds = [gd.Mechanism(kind) for kind, *_ in requests]
        sigmas = array("d", bytes(8 * len(requests)))
        nan = math.nan
        timer = SegmentTimer()
        record = timer.record
        for i, (kind, (_, eps, delta, sens)) in enumerate(zip(kinds, requests)):
            t0 = perf_counter()
            try:
                sigma = calibrate(kind, budget_of(eps, delta), sens_of(sens)).sigma
            except Exception:
                sigma = nan
            record(perf_counter() - t0)
            sigmas[i] = sigma
        failed = sum(1 for s in sigmas if not (s >= 0.0 and math.isfinite(s)))
        latencies, wall, raw_wall, slowdown = timer.finish()
        return Pass(latencies, sigmas, wall, failed, raw_wall, slowdown)

    def figures(self, requests, res: Pass) -> tuple[dict, float]:
        solver = [t for t, (kind, *_) in zip(res.times, requests) if kind in OPTIMAL]
        tail_p, tail_s = tail(res.times)
        return {
            "ops_per_s": len(requests) / res.wall,
            "op_p50_ms": statistics.median(res.times) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "heavy_ms": statistics.median(solver) * 1e3,
            "pass_s": res.wall,
        }, tail_p

    def check(self, requests, res: Pass, cert: Certificate, problems: list, full: bool) -> None:
        for (kind, eps, delta, sens), sigma in zip(requests, res.answers):
            if sigma >= 0.0 and math.isfinite(sigma):
                cert.check(self.gd, kind, eps, delta, sens, sigma)


# ---------------------------------------------------------------------------
# command-driven workloads (grid-sweep and cli-script)


@dataclass
class Command:
    family: str  # calibrate, compare, region, profile, compose, experiment
    argv: list  # without --output
    output: Path
    units: int = 1  # compare cells or frontier points it emits

    @property
    def full_argv(self) -> list:
        return [*self.argv, "--output", str(self.output)]


def run_in_process(gd, cmd: Command) -> int:
    try:
        return gd.cli.main(cmd.full_argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # counted as a failed operation
        print(f"perfbench: {cmd.argv[0]} raised {exc!r}", file=sys.stderr)
        return 1


def parse_table(data: bytes, header: list, problems: list, what: str) -> list:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not rows or rows[0] != header:
        problems.append(f"{what}: header {rows[:1]} is not {header}")
        return []
    return rows[1:]


def exact_float(text: str, problems: list, what: str) -> float:
    """Parse a float cell; it must round-trip to the same text."""
    try:
        value = float(text)
    except ValueError:
        problems.append(f"{what}: {text!r} is not a float")
        return math.nan
    if repr(value) != text:
        problems.append(f"{what}: {text!r} does not round-trip")
    return value


def grid_arg(values) -> str:
    return ",".join(repr(v) for v in values)


class CommandWorkload(Workload):
    """A script of CLI commands run in-process through ``gaussdp.cli.main``."""

    def run_pass(self, commands) -> Pass:
        gd = self.gd
        codes = []
        timer = SegmentTimer()
        for cmd in commands:
            t0 = perf_counter()
            code = run_in_process(gd, cmd)
            timer.record(perf_counter() - t0)
            codes.append(code)
        durations, wall, raw_wall, slowdown = timer.finish()
        outputs = [cmd.output.read_bytes() if code == 0 else None
                   for cmd, code in zip(commands, codes)]
        return Pass(durations, outputs, wall, sum(code != 0 for code in codes), raw_wall, slowdown)

    def check(self, commands, res: Pass, cert: Certificate, problems: list, full: bool) -> None:
        for cmd, data in zip(commands, res.answers):
            if data is not None:
                getattr(self, f"_check_{cmd.family}")(cmd, data, cert, problems, full)


# ---------------------------------------------------------------------------
# grid-sweep


class GridSweep(CommandWorkload):
    """Per pass: `compare` on each grid shape the repository uses, `region`,
    `profile` and `compose` on the README's shapes, all freshly jittered."""

    name = "grid-sweep"

    def __init__(self, gd, seed: int, workdir: Path, size: Size) -> None:
        super().__init__(gd, seed, workdir, size)
        self.samples = {
            "compare_shapes": [f"{ne}x{nd}" for _, ne, _, nd in size.compare_shapes],
            "cells_per_pass": sum(ne * nd * len(MECHANISMS) for _, ne, _, nd in size.compare_shapes),
            "frontier_points_per_pass": 2 * REGION_SHAPE[1],
        }

    def script(self, k) -> list:
        rng, out = pass_rng(self.seed, k), self.workdir
        commands = []
        for i, (eps_range, n_eps, delta_range, n_delta) in enumerate(self.size.compare_shapes):
            eps = jittered_grid(rng, eps_range, n_eps)
            deltas = jittered_grid(rng, delta_range, n_delta)
            commands.append(Command(
                "compare", ["compare", "--eps-grid", grid_arg(eps), "--delta-grid", grid_arg(deltas),
                            "--sens", repr(loguniform(rng, SENS_RANGE))],
                out / f"compare-{i}.csv", n_eps * n_delta * len(MECHANISMS)))
        deltas = jittered_grid(rng, *REGION_SHAPE)
        commands.append(Command("region", ["region", "--delta-grid", grid_arg(deltas)],
                                out / "region.csv", 2 * len(deltas)))
        sens = loguniform(rng, SENS_RANGE)
        sigmas = [sens * s for s in jittered_grid(rng, *PROFILE_SHAPE)]
        commands.append(Command("profile", [
            "profile", "--sigma-grid", grid_arg(sigmas), "--eps", repr(loguniform(rng, (0.5, 2.0))),
            "--sens", repr(sens)], out / "profile.csv"))
        terms = [(loguniform(rng, (0.5, 5.0)), loguniform(rng, (0.5, 5.0))) for _ in range(COMPOSE_TERMS)]
        commands.append(Command("compose", [
            "compose", *(a for d, s in terms for a in ("--term", f"{d!r}:{s!r}")),
            "--eps", repr(loguniform(rng, (0.5, 2.0)))], out / "compose.csv"))
        return commands

    def warm_up(self) -> None:
        """The smallest command of each family."""
        commands = self.script("warm-up")
        for family in dict.fromkeys(cmd.family for cmd in commands):
            run_in_process(self.gd, min((c for c in commands if c.family == family),
                                        key=lambda c: c.units))

    def figures(self, commands, res: Pass) -> tuple[dict, float]:
        compare = [(t, cmd.units) for cmd, t in zip(commands, res.times) if cmd.family == "compare"]
        times = [t for t, _ in compare]
        region = [(t, cmd.units) for cmd, t in zip(commands, res.times) if cmd.family == "region"]
        return {
            "ops_per_s": sum(n for _, n in compare) / math.fsum(times),
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_tail_ms": max(times) * 1e3,
            "heavy_ms": math.fsum(t for t, _ in region) / sum(n for _, n in region) * 1e3,
            "pass_s": res.wall,
        }, 100.0

    def _check_compare(self, cmd, data, cert, problems, full) -> None:
        gd = self.gd
        eps_grid = [float(v) for v in cmd.argv[2].split(",")]
        delta_grid = [float(v) for v in cmd.argv[4].split(",")]
        sens_value = float(cmd.argv[6])
        sens = gd.Sensitivity(sens_value)
        rows = parse_table(data, ["epsilon", "delta", "mechanism", "sigma", "achieves_dp"],
                           problems, "compare")
        expected = [(e, d, k) for e in eps_grid for d in delta_grid for k in MECHANISMS]
        if len(rows) != len(expected):
            problems.append(f"compare: {len(rows)} rows, expected {len(expected)}")
            return
        for row, (eps, delta, kind) in zip(rows, expected):
            e = exact_float(row[0], problems, "compare epsilon")
            d = exact_float(row[1], problems, "compare delta")
            sigma = exact_float(row[3], problems, "compare sigma")
            if (e, d, row[2]) != (eps, delta, kind):
                problems.append(f"compare: row {row[:3]} out of order")
                continue
            budget = gd.PrivacyBudget(eps, delta)
            if full:
                want = gd.calibrate(kind, budget, sens).sigma
                if sigma != want:
                    problems.append(f"compare: sigma {sigma!r} for {kind} at {eps!r},{delta!r} is not {want!r}")
            achieves = gd.achieves_dp(gd.NoiseScale(sigma, gd.Mechanism(kind)), budget, sens)
            if row[4] != ("true" if achieves else "false"):
                problems.append(f"compare: achieves_dp {row[4]} for {kind} at {eps!r},{delta!r}")
            # achieves_dp=false for a certified mechanism is a certificate
            # miss (the pDP profile bounds the DP one), so it is counted there
            cert.check(gd, kind, eps, delta, sens_value, sigma)

    def _check_region(self, cmd, data, cert, problems, full) -> None:
        gd = self.gd
        rows = parse_table(data, ["delta", "G_dwork2014", "G_dwork2006"], problems, "region")
        deltas = [float(d) for d in cmd.argv[2].split(",")]
        if len(rows) != len(deltas):
            problems.append(f"region: {len(rows)} rows, expected {len(deltas)}")
            return
        unit = gd.Sensitivity(1.0)
        for row, delta in zip(rows, deltas):
            if exact_float(row[0], problems, "region delta") != delta:
                problems.append(f"region: delta {row[0]} is not {delta!r}")
                continue
            for text, c in ((row[1], 1.25), (row[2], 2.0)):
                g = exact_float(text, problems, "region G")
                f = math.sqrt(2.0 * math.log(c / delta))
                below, above = g * (1.0 - 1e-4), g * (1.0 + 1e-4)
                opt_below = gd.solve_dp_opt(gd.PrivacyBudget(below, delta), unit).noise.sigma
                opt_above = gd.solve_dp_opt(gd.PrivacyBudget(above, delta), unit).noise.sigma
                if not (f / below >= opt_below and f / above < opt_above):
                    problems.append(f"region: G={g!r} at delta={delta!r} does not bracket the crossing")

    def _check_profile(self, cmd, data, cert, problems, full) -> None:
        gd = self.gd
        sigmas = [float(v) for v in cmd.argv[2].split(",")]
        eps, sens_value = float(cmd.argv[4]), float(cmd.argv[6])
        rows = parse_table(data, ["sigma", "dp_delta", "pdp_delta"], problems, "profile")
        if len(rows) != len(sigmas):
            problems.append(f"profile: {len(rows)} rows, expected {len(sigmas)}")
            return
        sens = gd.Sensitivity(sens_value)
        previous = math.inf
        for row, sigma in zip(rows, sigmas):
            values = [exact_float(v, problems, "profile") for v in row]
            noise = gd.NoiseScale(sigma, gd.Mechanism.DP_OPT)
            want = [sigma, gd.dp_delta_profile(noise, eps, sens), gd.pdp_delta_profile(noise, eps, sens)]
            if values != want:
                problems.append(f"profile: row {row} is not {want}")
            elif not (0.0 <= values[1] <= values[2] <= 1.0 and values[1] <= previous):
                problems.append(f"profile: row {row} breaks 0 <= dp <= pdp <= 1 or monotonicity")
            previous = values[1]

    def _check_compose(self, cmd, data, cert, problems, full) -> None:
        gd = self.gd
        terms = [tuple(map(float, a.split(":"))) for a in cmd.argv[2:-2:2]]
        eps = float(cmd.argv[-1])
        rows = parse_table(data, ["sigma_star", "dp_delta", "pdp_delta"], problems, "compose")
        terms = [gd.CompositionTerm(gd.Sensitivity(d), s) for d, s in terms]
        want = [gd.effective_unit_sigma(terms), gd.composed_dp_delta(terms, eps),
                gd.composed_pdp_delta(terms, eps)]
        if len(rows) != 1 or [exact_float(v, problems, "compose") for v in rows[0]] != want:
            problems.append(f"compose: {rows} is not {want}")


# ---------------------------------------------------------------------------
# cli-script


class CliScript(CommandWorkload):
    """A seeded script of CLI commands run in-process through main: the
    experiments are the only library work that uses `mech` and `rng`."""

    name = "cli-script"

    def __init__(self, gd, seed: int, workdir: Path, size: Size) -> None:
        super().__init__(gd, seed, workdir, size)
        self.csv_path = workdir / "census.csv"
        header, rows = gd.synthetic_census_rows(size.census_rows, seed)
        gd.mech.write_categorical_csv(self.csv_path, header, rows)
        self.samples = {
            "calibrate_commands_per_pass": size.cli_calibrates,
            "experiment_commands_per_pass": size.cli_hists + size.cli_means,
        }

    def script(self, k) -> list:
        rng, out, size = pass_rng(self.seed, k), self.workdir, self.size
        commands = []
        for i, (kind, eps, delta, sens) in enumerate(draw_requests(rng, size.cli_calibrates)):
            commands.append(Command("calibrate", [
                "calibrate", "--mech", kind, "--eps", repr(eps), "--delta", repr(delta),
                "--sens", repr(sens)], out / f"calibrate-{i}.csv"))
        experiments = ["hist"] * size.cli_hists + ["mean"] * size.cli_means
        for i, what in enumerate(experiments):
            argv = ["experiment", what]
            if what == "hist":
                argv += ["--csv", str(self.csv_path)]
            else:
                argv += ["--n", str(size.mean_n), "--d", str(size.mean_d)]
            argv += ["--eps", repr(loguniform(rng, EPS_RANGE)),
                     "--delta", repr(loguniform(rng, DELTA_RANGE)),
                     "--trials", str(size.trials), "--seed", str(rng.randrange(1 << 30))]
            commands.append(Command("experiment", argv, out / f"experiment-{i}.csv"))
        rng.shuffle(commands)
        return commands

    def figures(self, commands, res: Pass) -> tuple[dict, float]:
        calib = [t for cmd, t in zip(commands, res.times) if cmd.family == "calibrate"]
        solver = [t for cmd, t in zip(commands, res.times)
                  if cmd.family == "calibrate" and cmd.argv[2] in OPTIMAL]
        exper = [t for cmd, t in zip(commands, res.times) if cmd.family == "experiment"]
        # The tail is taken over the solver commands: over all calibrate
        # commands its ten slowest are whichever a slow spell hit.
        tail_p, tail_s = tail(solver)
        return {
            "ops_per_s": len(commands) / res.wall,
            "op_p50_ms": statistics.median(calib) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "heavy_ms": statistics.median(exper) * 1e3,
            "pass_s": res.wall,
        }, tail_p

    def warm_up(self) -> None:
        """One calibrate and one experiment of each kind, with few trials."""
        warm = {}
        for cmd in self.script("warm-up"):
            warm.setdefault(cmd.argv[1] if cmd.family == "experiment" else cmd.family, cmd)
        for cmd in warm.values():
            if cmd.family == "experiment":
                cmd.argv[cmd.argv.index("--trials") + 1] = "2"
            run_in_process(self.gd, cmd)

    def _check_calibrate(self, cmd, data, cert, problems, full) -> None:
        gd = self.gd
        header = ["mechanism", "epsilon", "delta", "sensitivity", "sigma", "iterations", "residual", "warning"]
        rows = parse_table(data, header, problems, "calibrate")
        kind, eps, delta, sens = cmd.argv[2], *(float(cmd.argv[i]) for i in (4, 6, 8))
        if len(rows) != 1 or rows[0][0] != kind:
            problems.append(f"calibrate: unexpected output {rows}")
            return
        sigma = exact_float(rows[0][4], problems, "calibrate sigma")
        want = gd.calibrate(kind, gd.PrivacyBudget(eps, delta), gd.Sensitivity(sens)).sigma
        if sigma != want:
            problems.append(f"calibrate: sigma {sigma!r} for {kind} is not {want!r}")
        cert.check(gd, kind, eps, delta, sens, sigma)

    def _check_experiment(self, cmd, data, cert, problems, full) -> None:
        gd = self.gd
        rows = parse_table(data, ["mechanism", "trials", "metric", "metric_stderr"], problems, "experiment")
        if [r[0] for r in rows] != list(MECHANISMS):
            problems.append(f"experiment: mechanisms {[r[0] for r in rows]}")
            return
        if not all(math.isfinite(float(r[2])) and float(r[2]) >= 0.0 for r in rows):
            problems.append(f"experiment {cmd.argv[1]}: a metric is not finite and >= 0: {rows}")
        if not full:
            return
        if run_in_process(gd, cmd) != 0 or cmd.output.read_bytes() != data:
            problems.append(f"experiment {cmd.argv[1]}: a repeat with the same seed differs")
        args = dict(zip(cmd.argv[2::2], cmd.argv[3::2]))
        budget = gd.PrivacyBudget(float(args["--eps"]), float(args["--delta"]))
        if cmd.argv[1] == "hist":
            sens = gd.Sensitivity(1.0)
            expect = lambda sigma: sigma * sigma
        else:
            d = int(args["--d"])
            sens = gd.Sensitivity(math.sqrt(d) / int(args["--n"]))
            chi = math.sqrt(2.0) * math.exp(math.lgamma((d + 1) / 2) - math.lgamma(d / 2))
            expect = lambda sigma: sigma * chi
        for row in rows:
            metric, stderr = float(row[2]), float(row[3])
            expected = expect(gd.calibrate(row[0], budget, sens).sigma)
            if not abs(metric - expected) <= 5.0 * stderr:
                problems.append(
                    f"experiment {cmd.argv[1]}: {row[0]} metric {metric!r} is more than "
                    f"5 stderr ({stderr!r}) from {expected!r}"
                )


WORKLOADS = {w.name: w for w in (CalibStream, GridSweep, CliScript)}
