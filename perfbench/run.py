#!/usr/bin/env python3
"""Run one workload of the gaussdp benchmark, or all of them.

    python3 perfbench/run.py --workload calib-stream --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 40

Run from the repository root.  With ``--trace 0`` the run reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  A table of every metric (value, unit, better direction) goes to
stdout, a JSON report to ``.perfbench/``, and the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  ``--all``
runs every workload both ways in child processes and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

import bench
import layers
import speed

# (name, unit, better, bound, meaning per workload).  Each is the median,
# over a run's passes, of the figure each pass yields; setup_s is the median
# over the set-ups timed before each pass.  Times are at the nominal host
# speed of speed.py.
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.25,
     "calib-stream: requests per second of pass wall time; grid-sweep: compare "
     "cells per second of compare wall time; cli-script: commands per second"),
    ("op_p50_ms", "ms", "lower", 0.25,
     "median latency within a pass of a calibrate request / compare command / "
     "calibrate command"),
    ("op_tail_ms", "ms", "lower", 0.25,
     "the same at the highest percentile with 10 samples beyond it; on "
     "grid-sweep the pass's slowest compare command (the 30x30 grid), on "
     "cli-script taken over the dp-opt/pdp-opt calibrate commands"),
    ("heavy_ms", "ms", "lower", 0.25,
     "the heavy operation: median optimal-solver request / region time per "
     "frontier point G / median experiment command"),
    ("pass_s", "s", "lower", 0.25,
     "wall time of one pass: the request stream / the sweep / the script"),
    ("setup_s", "s", "lower", 0.25,
     "one complete set-up in a fresh interpreter: start-up, import, inputs, warm-up"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak RSS of a fresh interpreter that sets up and runs pass 0, unchecked"),
]
RESULTS = bench.ROOT / ".perfbench"


def environment() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor()
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def time_setup(workload: str, seed: int) -> float:
    """Wall time of one complete set-up (interpreter, import, inputs,
    warm-up) in a fresh interpreter, scaled to the nominal host speed."""
    argv = [str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
            "--setup-only"]
    (code, _), elapsed = speed.timed(bench.run_child, argv)
    if code != 0:
        raise RuntimeError(f"set-up of {workload} exited with {code}")
    return elapsed


def peak_rss_of_one_pass(workload: str, seed: int) -> float:
    """Peak RSS, in MB, of a fresh interpreter that sets up and runs pass 0
    (the same inputs on every run of a seed).  The timed process's own peak
    would also hold the checks' tables and whichever garbage the collector
    had not yet freed."""
    argv = [str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
            "--setup-only", "--one-pass"]
    code, usage = bench.run_child(argv)
    if code != 0:
        raise RuntimeError(f"one pass of {workload} exited with {code}")
    return usage.ru_maxrss / 1024.0


def run_workload(args) -> int:
    gd = bench.load_gaussdp()
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        setup_t0 = perf_counter()
        workload = bench.WORKLOADS[args.workload](gd, args.seed, workdir, bench.Size())
        workload.warm_up()
        in_process_setup = perf_counter() - setup_t0
        if args.setup_only:
            if args.one_pass:
                workload.run_pass(workload.script(0))
            return 0
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": environment()}
        if args.trace:
            traced = layers.traced_run(gd, workload, args.seconds, workdir)
            defs = [(n, u, b) for n, u, b, _ in layers.PER_LAYER]
            values = traced["values"]
            attempted, failed = traced["attempted"], traced["failed"]
            problems, cert = traced["problems"], traced["cert"]
            report["samples"] = traced["samples"]
            report["layer_map"] = {n: moves for n, _, _, moves in layers.PER_LAYER}
        else:
            start = perf_counter()
            peak_rss = peak_rss_of_one_pass(args.workload, args.seed)
            outcome = workload.run(max(0.0, args.seconds - (perf_counter() - start)),
                                   lambda: time_setup(args.workload, args.seed))
            defs = [(n, u, b) for n, u, b, *_ in END_TO_END]
            values = dict(outcome.metrics, peak_rss_mb=peak_rss)
            attempted, failed = outcome.attempted, outcome.failed
            problems, cert = outcome.problems, outcome.cert
            report["samples"] = dict(outcome.samples, in_process_setup_s=in_process_setup)
            report["per_pass"] = outcome.per_pass
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in defs}
        report.update(
            metrics={name: dict(metrics[name], better=better) for name, _, better in defs},
            attempted=attempted, failed=failed, fail_frac=failed / attempted,
            certificate=cert.report(), problems=problems,
        )
        path = Path(args.report) if args.report else (
            RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        path.write_text(json.dumps(report, indent=1) + "\n")
        for problem in problems[:20]:
            print(f"check failed: {problem}")
        for name, unit, better in defs:
            print(f"{args.workload:13} {name:42} {values[name]:>16.6g} {unit:6} {better}")
        print(json.dumps({"correct": not problems, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    RESULTS.mkdir(exist_ok=True)
    reports = []
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            path = RESULTS / f"all-{workload}-trace{trace}.json"
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--report", str(path)],
                stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            reports.append(json.loads(path.read_text()))
    print(f"{'workload':13} {'trace':5} {'metric':42} {'value':>16} {'unit':6} better")
    for r in reports:
        for name, m in r["metrics"].items():
            print(f"{r['workload']:13} {r['trace']:<5} {name:42} {m['value']:>16.6g} "
                  f"{m['unit']:6} {m['better']}")
    combined = {"seed": args.seed, "seconds": args.seconds, "env": environment(),
                "runs": reports}
    out = Path(args.out) if args.out else RESULTS / f"report-seed{args.seed}.json"
    out.write_text(json.dumps(combined, indent=1) + "\n")
    print(f"report written to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(bench.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, both ways")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="path of this run's JSON report")
    parser.add_argument("--out", help="path of the combined JSON report (--all)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--one-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload or --all is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
