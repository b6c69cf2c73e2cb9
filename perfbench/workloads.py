"""The benchmark's four workloads.

Each workload is a closed loop from one process: one operation at a time,
no threads.  CLI operations run as child processes (``windgfm.cli.main``,
as the ``windgfm`` console script calls it); ``envelope_sweep`` calls
``harness.run_scenario`` in-process.  An operation's time covers the
program call only; the checks that follow it are untimed.  The operation
lists are fixed; only their order within a pass comes from the seed.
"""
from __future__ import annotations

import copy
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import build
import tracer

HERE = Path(__file__).resolve().parent
CLI = "import sys; from windgfm.cli import main; sys.exit(main())"
# Run in a fresh interpreter as set-up: warms the file cache and checks
# which kernels the staged package loads.
PROBE = ("import windgfm.cli, windgfm._kernel as k, importlib.util as u; "
         "print(k.BACKEND, u.find_spec('windgfm._kernel._ode_cy') is not None)")


class SetupError(RuntimeError):
    pass


@dataclass
class OpResult:
    name: str
    seconds: float
    ok: bool
    rss_kb: int = 0
    records: list = field(default_factory=list)


@dataclass
class Context:
    stage: Path
    run_dir: Path


def default_config(**scenario) -> dict:
    from windgfm.config import DEFAULT_CONFIG
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    cfg["scenario"].update(scenario)
    return cfg


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliWorkload:
    """Operations are windgfm CLI calls; outputs land in the run directory."""

    name = ""
    pure = False
    # op name -> (CLI arguments, output files besides the op's stdout)
    commands: dict = {}

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.digests: dict = {}
        self.extra_records: list = []

    @property
    def ops(self) -> list:
        return list(self.commands)

    def setup(self) -> None:
        proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                              text=True, env=build.child_env(self.ctx.stage, self.pure),
                              cwd=self.ctx.run_dir)
        want = f"{'python' if self.pure else 'cython'} True"
        if proc.returncode != 0 or proc.stdout.strip() != want:
            raise SetupError(f"staged windgfm loads kernels {proc.stdout.strip()!r}, "
                             f"expected {want!r}: {proc.stderr[-500:]}")

    def path(self, name: str) -> Path:
        return self.ctx.run_dir / name

    def cli(self, op: str, args: list, traced: bool, pure: bool) -> OpResult:
        spans = self.path(f"{op}.spans.json")
        cmd = ([sys.executable, str(HERE / "bootstrap.py"), str(spans)] if traced
               else [sys.executable, "-c", CLI]) + list(args)
        with open(self.path(f"{op}.stdout"), "wb") as out, \
                open(self.path(f"{op}.stderr"), "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.ctx.run_dir, stdout=out, stderr=err,
                                    env=build.child_env(self.ctx.stage, pure))
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0
        if not ok:
            tail = self.path(f"{op}.stderr").read_text(errors="replace")[-400:]
            print(f"{self.name}: {op} exited {proc.returncode}: {tail}", file=sys.stderr)
        records = [json.loads(spans.read_text())] if traced and spans.exists() else []
        return OpResult(op, seconds, ok, usage.ru_maxrss, records)

    def run_op(self, op: str, traced: bool) -> OpResult:
        res = self.cli(op, self.commands[op][0], traced, self.pure)
        res.ok = res.ok and self.judge(op)
        return res

    def verify(self, res: OpResult) -> None:
        """Untimed, after each op: its outputs equal those of the first pass."""
        from checks import CheckError
        if not res.ok:
            return
        files = [f"{res.name}.stdout", *self.commands[res.name][1]]
        digest = [_sha(self.path(f)) for f in files]
        if self.digests.setdefault(res.name, digest) != digest:
            raise CheckError(f"{res.name}: outputs differ between passes")

    def judge(self, op: str) -> bool:
        """Whether an op that exited 0 succeeded; see DesignCli."""
        return True

    def text(self, name: str) -> str:
        return self.path(name).read_text()


class TraceCli(CliWorkload):
    """The paper's headline run: simulate and compare on the default config."""

    name = "trace_cli"
    commands = {
        "simulate": (["simulate", "--out", "sim.csv", "--plot", "sim.svg"],
                     ["sim.csv", "sim.svg"]),
        "compare": (["compare", "--out", "cmp.csv", "--plot", "cmp.svg"],
                    ["cmp_GFL_MPPT.csv", "cmp_GFM_MPPT.csv", "cmp_GFM_FR.csv",
                     "cmp.svg"]),
    }

    def check(self, done: set, traced: bool) -> None:
        import checks as C
        t_ev = 30.0
        if "simulate" in done:
            sim = C.parse_trace_csv(self.text("sim.csv"))
            C.check_trace(sim, default_config())
            C.check_metrics_json(self.text("simulate.stdout"),
                                 {"GFM_FR": C.nadir_hz(sim, t_ev)})
            C.check_svg(self.text("sim.svg"), "polyline", 8)
        if "compare" in done:
            nadirs = {}
            for mode in ("GFL_MPPT", "GFM_MPPT", "GFM_FR"):
                tr = C.parse_trace_csv(self.text(f"cmp_{mode}.csv"))
                C.check_trace(tr, default_config(
                    mode=mode, eta=0.9 if mode == "GFM_FR" else 1.0))
                nadirs[mode] = C.nadir_hz(tr, t_ev)
            C.check_nadir_order(nadirs)
            C.check_metrics_json(self.text("compare.stdout"), nadirs)
            C.check_svg(self.text("cmp.svg"), "polyline", 8)
        if {"simulate", "compare"} <= done:
            C.check_same_bytes(self.path("sim.csv").read_bytes(),
                               self.path("cmp_GFM_FR.csv").read_bytes(),
                               "simulate vs compare GFM_FR trace")


class DesignCli(CliWorkload):
    """The design chain and the small-signal analysis; no simulation."""

    name = "design_cli"
    commands = {
        "deload-table": (["deload-table", "--out", "table.csv"], ["table.csv"]),
        "droop-map": (["droop-map", "--out", "droop.csv", "--plot", "droop.svg"],
                      ["droop.csv", "droop.svg"]),
        "gain-design": (["gain-design"], []),
        "smallsignal": (["smallsignal"], []),
    }

    def judge(self, op: str) -> bool:
        # The default deload table is wrong at 7.5 and 8.5 m/s: there
        # curtailment.deload_point rounds min(Cp_max k3, P_rated) / k3 to
        # just above Cp_max, skips the overspeed branch and returns omega_max
        # with zero pitch, up to 15% short of the target power.  The command
        # exits 0, so its failure is its output failing the deload check.
        if op != "deload-table":
            return True
        import checks as C
        try:
            C.check_deload_table(self.text("table.csv"), default_config())
        except C.CheckError as e:
            print(f"{self.name}: deload-table failed its check: {e}", file=sys.stderr)
            return False
        return True

    def check(self, done: set, traced: bool) -> None:
        import checks as C
        cfg = default_config()
        if "droop-map" in done:
            C.check_droop_map(self.text("droop.csv"))
            C.check_svg(self.text("droop.svg"), "rect", 50)
        if "gain-design" in done:
            gains = C.check_gain_design(self.text("gain-design.stdout"), cfg)
            if "smallsignal" in done:
                C.check_smallsignal(self.text("smallsignal.stdout"), gains)


PURE_ARGS = ["simulate", "--set", "scenario.duration=40",
             "--set", "scenario.events=[[20.0,0.4]]", "--set", "scenario.dt=0.001"]


class PureFallback(CliWorkload):
    """simulate on the pure-Python kernel (WINDGFM_PURE=1), a shortened run."""

    name = "pure_fallback"
    pure = True
    commands = {"simulate": ([*PURE_ARGS, "--out", "pure.csv"], ["pure.csv"])}

    def check(self, done: set, traced: bool) -> None:
        import checks as C
        kernel_parity()
        if "simulate" not in done:
            return
        ref = self.cli("reference", [*PURE_ARGS, "--out", "ref.csv"], traced, pure=False)
        self.extra_records = ref.records
        C.require(ref.ok, "compiled-kernel reference run failed")
        C.check_same_bytes(self.path("pure.csv").read_bytes(),
                           self.path("ref.csv").read_bytes(),
                           "pure-Python vs compiled kernel CSV")
        pure = C.parse_trace_csv(self.text("pure.csv"))
        C.check_trace(pure, default_config(duration=40.0, events=[[20.0, 0.4]], dt=0.001))
        C.check_metrics_json(self.text("simulate.stdout"),
                             {"GFM_FR": C.nadir_hz(pure, 20.0)})


def kernel_parity(seconds: float = 4.0, dt: float = 1e-3) -> None:
    """Both kernels give bit-identical states on the default GFM_FR scenario
    with its load step moved to mid-run."""
    import numpy as np
    from checks import CheckError
    from windgfm import harness
    from windgfm._kernel import _ode_cy, _ode_py
    from windgfm.config import make_plant, make_surface
    from windgfm.plant import find_equilibrium
    cfg = default_config()
    plant, surface = make_plant(cfg), make_surface(cfg)
    sc = harness.scenario_from_config(cfg)
    design = harness.gains_for_scenario(plant, surface, sc)
    x0, p_arr, _ = find_equilibrium(plant, design.gains, surface, sc.v_w,
                                    sc.load, sc.mode)
    n = int(round(seconds / dt))
    args = (x0, p_arr, int(sc.mode), dt, n, 1, sc.load.base, (seconds / 2,), (0.4,))
    if not np.array_equal(_ode_py.simulate(*args), _ode_cy.simulate(*args)):
        raise CheckError("pure-Python and compiled kernels differ")


ENVELOPE_SPEEDS = (6.0, 8.0, 10.0, 12.0, 14.0)
ENVELOPE_MODES = (("GFM_FR", 0.9), ("GFM_MPPT", 1.0), ("GFL_MPPT", 1.0))


class EnvelopeSweep:
    """In-process run_scenario(check=True) + compute_metrics over wind speeds."""

    name = "envelope_sweep"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.nadirs: dict = {}
        self.extra_records: list = []
        self.tracer = None
        self.last = None

    @property
    def ops(self) -> list:
        return list(self.scenarios)

    def setup(self) -> None:
        import windgfm
        from windgfm import harness
        from windgfm.config import make_plant, make_surface
        if windgfm.KERNEL_BACKEND != "cython":
            raise SetupError(f"staged windgfm runs the {windgfm.KERNEL_BACKEND} kernel")
        self.harness = harness
        self.configs = {f"{mode}@{v:g}": default_config(mode=mode, v_w=v, eta=eta)
                        for v in ENVELOPE_SPEEDS for mode, eta in ENVELOPE_MODES}
        cfg = default_config()
        self.plant, self.surface = make_plant(cfg), make_surface(cfg)
        self.scenarios = {k: harness.scenario_from_config(c)
                          for k, c in self.configs.items()}
        self.t_event = cfg["scenario"]["events"][0][0]
        harness.run_scenario(self.plant, self.surface, self.scenarios["GFM_FR@8"])

    def run_op(self, op: str, traced: bool) -> OpResult:
        if traced and self.tracer is None:
            self.tracer = tracer.Tracer()
            tracer.install(self.tracer)
        h = self.harness
        t0 = perf_counter()
        try:
            res = h.run_scenario(self.plant, self.surface, self.scenarios[op], check=True)
            met = h.compute_metrics(res.trace, self.t_event,
                                    f_base=self.plant.network.f_hz)
        except (h.HarnessAssertionError, ValueError, RuntimeError) as e:
            seconds = perf_counter() - t0
            print(f"{self.name}: {op} failed: {type(e).__name__}: {e}", file=sys.stderr)
            return OpResult(op, seconds, False, records=self._records(traced))
        seconds = perf_counter() - t0
        self.last = (res, met)
        return OpResult(op, seconds, True, records=self._records(traced))

    def _records(self, traced: bool) -> list:
        return [self.tracer.take()] if traced else []

    def verify(self, op_res: OpResult) -> None:
        """Untimed, after each op: trace checks and the reported nadir."""
        import checks as C
        from windgfm.harness import TRACE_COLUMNS
        if not op_res.ok:
            return
        op, (res, met) = op_res.name, self.last
        self.last = None
        tr = {c: res.trace.column(c) for c in TRACE_COLUMNS}
        C.check_trace(tr, self.configs[op])
        nadir = C.nadir_hz(tr, self.t_event)
        C.require(met.nadir_hz == nadir, f"{op}: compute_metrics nadir {met.nadir_hz} "
                  f"!= trace minimum {nadir}")
        C.require(self.nadirs.setdefault(op, nadir) == nadir,
                  f"{op}: nadir differs between passes")

    def check(self, done: set, traced: bool) -> None:
        import checks as C
        for v in ENVELOPE_SPEEDS:
            C.check_nadir_order({mode: self.nadirs[f"{mode}@{v:g}"]
                                 for mode, _ in ENVELOPE_MODES
                                 if f"{mode}@{v:g}" in self.nadirs},
                                where=f"v_w={v:g}: ")


WORKLOADS = {w.name: w for w in (TraceCli, DesignCli, EnvelopeSweep, PureFallback)}
