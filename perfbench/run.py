#!/usr/bin/env python3
"""windgfm benchmark: one workload per run, outputs checked, metrics as JSON.

Usage (from the root of a windgfm checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: trace_cli, design_cli, envelope_sweep, pure_fallback (see
README.md).  With --trace 0 the last stdout line carries the end-to-end
metrics, with --trace 1 the per-layer ones from a traced run.  The compiled
kernel is built from the committed C source into .bench_build/perfbench/.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import build
import tracer
import workloads

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CLI_COMMANDS = ("simulate", "compare", "deload-table", "droop-map", "gain-design",
                "smallsignal")
# Per-layer metrics derived from spans: inclusive seconds (.s), self seconds
# (.self_s) or calls (.calls) per pass, median over the traced passes.
SPAN_METRICS = (
    "cli.main.self_s",
    "aero.find_mpp.calls", "aero.find_mpp.s", "aero.cp.calls",
    "aero.power_sensitivities.s", "curtailment.deload_point.calls",
    "curtailment.build_table.s", "gaindesign.design_gains.calls",
    "gaindesign.design_gains.s", "gaindesign.mppt_gains.s", "gaindesign.droop_map.s",
    "plant.find_equilibrium.s", "plant.simulate.s", "plant.rk4_steps",
    "harness.run_scenario.self_s", "harness.run_checks.s", "harness.compute_metrics.s",
    "harness.compare_modes.self_s",
    "harness.trace_to_csv.s", "harness.csv_bytes", "plotting.trace_svg.s",
    "plotting.heatmap_svg.s", "curtailment.table_to_csv.s",
    "gaindesign.droop_map_to_csv.s",
    "smallsignal.stability_verdict.s", "smallsignal.lasalle_verify.s",
)
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import windgfm.cli; "
                "print(time.perf_counter() - t, int('scipy.linalg' in sys.modules))")


def unit_of(name: str) -> str:
    if name.endswith((".calls", "rk4_steps")):
        return "count"
    if name.endswith("ksteps_per_s"):
        return "ksteps/s"
    return {"harness.csv_bytes": "bytes", "import.scipy_linalg": "bool"}.get(name, "s")


def measure(wl, seconds: float, rng: random.Random, traced: bool,
            passes: list) -> list:
    """Append whole passes over the workload's operations to `passes` until
    `seconds` are used."""
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        order = list(wl.ops)
        rng.shuffle(order)
        passes.append([])
        for op in order:
            passes[-1].append(wl.run_op(op, traced))
            wl.verify(passes[-1][-1])
        print(f"# pass {len(passes) - 1}{' traced' if traced else ''} "
              f"{sum(r.seconds for r in passes[-1]):.3f} s: " + " ".join(order))
    return passes


def pass_seconds(passes: list) -> float:
    return statistics.median(sum(r.seconds for r in p) for p in passes)


def peak_rss_mb(wl, passes: list) -> float:
    if isinstance(wl, workloads.CliWorkload):
        return statistics.median(max(r.rss_kb for r in p) for p in passes) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_seconds(args, n: int) -> list:
    """n times from a fresh interpreter to the workload's first operation."""
    times = []
    for _ in range(n):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, __file__, "--probe", "--workload",
                                 args.workload, "--seed", str(args.seed)],
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(perf_counter() - t0)
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise workloads.SetupError("set-up probe failed")
    return times


def import_metrics(ctx) -> dict:
    runs = [subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                           text=True, env=build.child_env(ctx.stage), check=True,
                           cwd=ctx.run_dir).stdout.split()
            for _ in range(IMPORT_REPEATS)]
    return {"import.cli_s": statistics.median(float(r[0]) for r in runs),
            "import.scipy_linalg": max(int(r[1]) for r in runs)}


def layer_metrics(wl, ctx, plain: list, traced: list) -> dict:
    out = tracer.span_metrics([[rec for r in p for rec in r.records] for p in traced],
                              list(SPAN_METRICS))
    for cmd in CLI_COMMANDS:
        secs = [r.seconds for p in plain for r in p if r.name == cmd]
        out[f"cli.{cmd}.s"] = statistics.median(secs) if secs else 0.0
    records = [rec for p in traced for r in p for rec in r.records] + wl.extra_records
    for backend in ("cython", "python"):
        out[f"kernel.{backend}.ksteps_per_s"] = tracer.ksteps_per_s(records, backend)
    out.update(import_metrics(ctx))
    out["trace.overhead_s"] = pass_seconds(traced) - pass_seconds(plain)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        stage = build.ensure_stage()
    except build.BuildError as e:
        print(f"benchmark build failed: {e}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(stage))
    run_dir = build.BUILD / f"run-{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(stage=stage, run_dir=run_dir)
    try:
        return run(args, ctx)
    except workloads.SetupError as e:
        print(f"benchmark set-up failed: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, ctx) -> int:
    wl = workloads.WORKLOADS[args.workload](ctx)
    if args.probe:
        wl.setup()
        print("ready", flush=True)
        return 0
    from checks import CheckError
    # The host's speed drifts over seconds, so set-up is timed both before
    # and after the measured passes.
    setup_times = setup_seconds(args, SETUP_REPEATS // 2 + 1)
    wl.setup()
    rng = random.Random(args.seed)
    print(f"# {args.workload} seed {args.seed}: operation order per pass below")
    correct = True
    plain, traced = [], []
    try:
        if args.trace:
            measure(wl, args.seconds / 2, rng, False, plain)
            measure(wl, args.seconds / 2, rng, True, traced)
        else:
            measure(wl, args.seconds, rng, False, plain)
        done = {r.name for r in (traced or plain)[-1] if r.ok}
        wl.check(done, bool(args.trace))
    except CheckError as e:
        print(f"{args.workload}: CHECK FAILED: {e}", file=sys.stderr)
        correct = False
    setup_times += setup_seconds(args, SETUP_REPEATS // 2)
    results = [r for p in plain + traced for r in p]
    if args.trace:
        metrics = layer_metrics(wl, ctx, plain, traced) if correct else {}
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    else:
        metrics = {"setup_s": {"value": statistics.median(setup_times), "unit": "s"}}
        if plain:
            metrics["pass_s"] = {"value": pass_seconds(plain), "unit": "s"}
            metrics["peak_rss_mb"] = {"value": peak_rss_mb(wl, plain), "unit": "MB"}
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": sum(not r.ok for r in results), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
