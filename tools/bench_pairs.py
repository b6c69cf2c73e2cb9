#!/usr/bin/env python3
"""Paired before/after runs of perfbench, for recording a speed claim.

Usage (from the root of a windgfm checkout):

    python3 tools/bench_pairs.py --workload trace_cli [--workload ...] \\
        --pairs 10 --seed 201 --out BENCH_<PR>.json [--base HEAD] [--traced]

The base side is the committed tree of ``--base`` (default ``HEAD``),
exported with ``git archive`` into a temporary directory; the change side is
the working tree.  Pair ``i`` runs ``perfbench/run.py --seed SEED+i`` once on
each side for the run length set in ``BENCHMARK.json``, alternating which
side runs first, so that the host's slow drift in CPU speed falls on both
sides alike.  For each end-to-end metric the output gives both sides'
median and quartiles, the number of pairs the change wins, and whether the
change's median is within the metric's bound in ``BENCHMARK.json``.
``--traced`` adds one ``--trace 1`` run per side with the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Run in a side's root: the kernel backend its staged package loads for a
# workload, as perfbench's own set-up probe sees it.
BACKEND_PROBE = """
import subprocess, sys
sys.path.insert(0, "perfbench")
import build, workloads
pure = getattr(workloads.WORKLOADS[sys.argv[1]], "pure", False)
env = build.child_env(build.ensure_stage(), pure)
print(subprocess.run([sys.executable, "-c",
                      "import windgfm._kernel as k; print(k.BACKEND)"],
                     env=env, capture_output=True, text=True,
                     check=True).stdout.strip())
"""


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def export_tree(rev: str, dest: Path) -> None:
    """The committed files of rev, without a checkout or worktree entry."""
    proc = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                            stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if proc.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def perfbench(side: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {side} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


def backend(side: Path, workload: str) -> str:
    return subprocess.run([sys.executable, "-c", BACKEND_PROBE, workload], cwd=side,
                          capture_output=True, text=True, check=True).stdout.strip()


def quartiles(xs: list) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs: list, end_to_end: list) -> dict:
    """Per metric: each side's quartiles, the change's wins, its median
    change against the parent's interquartile range, and whether the change's
    median stays within the metric's bound from ``BENCHMARK.json``."""
    out = {}
    for spec in end_to_end:
        name = spec["name"]
        pairs = [(r["base"]["metrics"][name], r["change"]["metrics"][name])
                 for r in runs if name in r["base"]["metrics"]
                 and name in r["change"]["metrics"]]
        if len(pairs) < 2:
            continue
        base = quartiles([b for b, _ in pairs])
        change = quartiles([c for _, c in pairs])
        sign = 1.0 if spec["better"] == "lower" else -1.0
        gain = sign * (base["median"] - change["median"])
        bound = spec["bound"]
        if spec["better"] == "lower":
            within = change["median"] <= base["median"] * (1.0 + bound)
        else:
            within = change["median"] >= base["median"] * (1.0 - bound)
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "base": base, "change": change,
            "wins": sum(sign * (b - c) > 0 for b, c in pairs), "pairs": len(pairs),
            "median_change": change["median"] / base["median"] - 1.0,
            "gain_exceeds_base_iqr": gain > base["q3"] - base["q1"],
            "bound": bound, "within_bound": within,
        }
    return out


def host() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    import numpy
    return {"cores": os.cpu_count(), "cpu": model or platform.processor(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--base", default="HEAD", help="git revision of the base side")
    ap.add_argument("--traced", action="store_true",
                    help="add one --trace 1 run per side")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = {}
    doc = {"base": git("rev-parse", args.base), "change": "working tree",
           "host": host(), "command": " ".join(bench["command"]),
           "seconds": seconds, "workloads": workloads}
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        sides = {"base": Path(tmp), "change": ROOT}
        export_tree(args.base, sides["base"])
        for wl in args.workload:
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = perfbench(sides[side], wl, seed, seconds, 0)
                    print(f"{wl} seed {seed} {side}: "
                          f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr)
                runs.append(pair)
            entry = {"backend": {s: backend(p, wl) for s, p in sides.items()},
                     "seeds": [args.seed, args.seed + args.pairs - 1],
                     "failed_of_attempted": {
                         s: [sum(r[s]["failed"] for r in runs),
                             sum(r[s]["attempted"] for r in runs)] for s in sides},
                     "all_correct": all(r[s]["correct"] for r in runs for s in sides),
                     "summary": summarize(runs, bench["end_to_end"]), "runs": runs}
            if args.traced:
                entry["traced"] = {s: perfbench(p, wl, args.seed, seconds, 1)
                                   for s, p in sides.items()}
            workloads[wl] = entry
            args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
