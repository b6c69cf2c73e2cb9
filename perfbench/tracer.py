"""Span tracer for the traced benchmark run.

``install`` wraps the public functions of each windgfm module from outside
the package: the wrapper replaces the function at every place a windgfm
module binds it (``harness`` binds ``plant.simulate``, ``curtailment``
binds ``aero.cp``, ...), so calls through any binding are seen.  A wrapper
records a span ``[name, start, end, parent, value]`` in memory; ``dump``
writes them out when the traced process ends.  ``aero.cp`` is called once
per trace sample and ~1300 times per MPP search, so it is counted, not
spanned.
"""
from __future__ import annotations

import importlib
import json
import statistics
import sys
from time import perf_counter

SPANNED = {
    "cli": ("main",),
    "aero": ("find_mpp", "power_sensitivities"),
    "curtailment": ("deload_point", "build_table", "table_to_csv"),
    "gaindesign": ("design_gains", "mppt_gains", "droop_map", "droop_map_to_csv"),
    "plant": ("find_equilibrium", "simulate"),
    "harness": ("run_scenario", "run_checks", "compute_metrics", "compare_modes",
                "trace_to_csv"),
    "plotting": ("trace_svg", "heatmap_svg"),
    "smallsignal": ("stability_verdict", "lasalle_verify"),
}
COUNTED = {"aero": ("cp",)}
# Span values: characters (= bytes, the CSV is ASCII) of a CSV trace.
VALUES = {"harness.trace_to_csv": lambda args, out: len(out)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list[int]] = {}
        self._stack: list[int] = []

    def span(self, name, fn, value=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if value is not None:
                rec[4] = value(args, out)
            return out
        return wrapper

    def counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def record(self) -> dict:
        return {"spans": self.spans[:],
                "counts": {k: v[0] for k, v in self.counts.items()}}

    def take(self) -> dict:
        """The record so far; the wrappers then record afresh."""
        rec = self.record()
        self.spans.clear()
        for cell in self.counts.values():
            cell[0] = 0
        return rec

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.record(), fh)


def install(tracer: Tracer) -> None:
    """Wrap windgfm's public functions at every binding in its modules."""
    kernel = importlib.import_module("windgfm._kernel")
    replace = {}
    for table, make in ((SPANNED, tracer.span), (COUNTED, tracer.counter)):
        for short, names in table.items():
            mod = importlib.import_module(f"windgfm.{short}")
            for fn_name in names:
                name = f"{short}.{fn_name}"
                orig = getattr(mod, fn_name)
                args = (VALUES[name],) if name in VALUES else ()
                replace[id(orig)] = (orig, make(name, orig, *args))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "windgfm" or mod_name.startswith("windgfm."):
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
    # plant calls the active kernel through the package attribute only; the
    # span value is the call's number of RK4 steps.
    kernel.simulate = tracer.span(f"kernel.{kernel.BACKEND}", kernel.simulate,
                                  lambda args, out: args[4])


# ------------------------------------------------------------ aggregation

def _pass_totals(records: list[dict]) -> dict:
    """Inclusive time, self time and calls per span name, over the records
    (one per process) of one pass."""
    inc, slf, calls, vals = {}, {}, {}, {}
    for rec in records:
        spans = rec["spans"]
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, value) in enumerate(spans):
            inc[name] = inc.get(name, 0.0) + (t1 - t0)
            slf[name] = slf.get(name, 0.0) + (t1 - t0 - child[i])
            calls[name] = calls.get(name, 0) + 1
            if value is not None:
                vals[name] = vals.get(name, 0) + value
        for name, n in rec["counts"].items():
            calls[name] = calls.get(name, 0) + n
    return {"inc": inc, "self": slf, "calls": calls, "vals": vals}


def _metric(tot: dict, metric: str) -> float:
    if metric == "plant.rk4_steps":
        return sum(v for k, v in tot["vals"].items() if k.startswith("kernel."))
    if metric == "harness.csv_bytes":
        return tot["vals"].get("harness.trace_to_csv", 0)
    stem, _, kind = metric.rpartition(".")
    if kind == "calls":
        return tot["calls"].get(stem, 0)
    if kind == "self_s":
        return tot["self"].get(stem, 0.0)
    return tot["inc"].get(stem, 0.0)


def ksteps_per_s(records: list[dict], backend: str) -> float:
    """Kernel throughput of one backend over every kernel call recorded."""
    steps = secs = 0.0
    for rec in records:
        for name, t0, t1, _, value in rec["spans"]:
            if name == f"kernel.{backend}":
                steps += value
                secs += t1 - t0
    return steps / secs / 1e3 if secs > 0 else 0.0


def span_metrics(passes: list[list[dict]], names: list[str]) -> dict:
    """Median over the traced passes of each span-derived metric in names."""
    totals = [_pass_totals(records) for records in passes]
    return {m: statistics.median(_metric(t, m) for t in totals) for m in names}
