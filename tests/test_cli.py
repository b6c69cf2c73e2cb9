import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import windgfm
from windgfm import _kernel, cli, harness
from windgfm._kernel import _ode_py
from windgfm.config import (
    DEFAULT_CONFIG, HarnessAssertionError, apply_overrides, load_config, make_plant, make_surface,
)
from windgfm.harness import gains_for_scenario, scenario_from_config
from windgfm.plant import MAX_STEPS, Mode

from test_trace_csv import trace_from_csv

FAST = ["--set", "scenario.duration=40",
        "--set", "scenario.events=[[10.0,0.4]]"]


def test_simulate_writes_trace_and_metrics(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    plot = tmp_path / "trace.svg"
    rc = cli.main(["simulate", *FAST, "--out", str(out), "--plot", str(plot)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert "GFM_FR" in doc
    assert doc["GFM_FR"]["nadir_hz"] < 50.0
    tr = trace_from_csv(out.read_text())
    assert tr.t[-1] == pytest.approx(40.0, abs=1e-9)
    assert plot.read_text().startswith("<svg")


def test_simulate_assertion_failure_exit_2(capsys):
    # event too close to the end of the run: steady-state checks cannot pass
    rc = cli.main(["simulate", "--set", "scenario.duration=33"])
    assert rc == 2
    assert "assertion failure" in capsys.readouterr().err


def test_config_error_exit_3(capsys):
    rc = cli.main(["simulate", "--set", "scenario.nope=1"])
    assert rc == 3
    assert "config error" in capsys.readouterr().err
    rc = cli.main(["simulate", "--set", "scenario.mode=BOGUS"])
    assert rc == 3


def test_config_file_is_honored(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"scenario": {"duration": 40.0, "events": [[10.0, 0.4]],
                      "v_w": 10.0}}))
    rc = cli.main(["simulate", "--config", str(path)])
    assert rc == 0
    assert "GFM_FR" in json.loads(capsys.readouterr().out)


def test_deload_table_stdout(capsys):
    rc = cli.main(["deload-table"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "v_w,eta,lambda_del,omega_del_pu,beta_del_deg"
    assert len(lines) == 1 + 21 * 7  # default 4..14 x 0.70..1.00 grid


def test_gain_design_json(capsys):
    rc = cli.main(["gain-design", "--set", "scenario.v_w=10.0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "ok"
    assert doc["k_theta_gsc"] == pytest.approx(0.5)
    assert doc["k_theta_msc"] == pytest.approx(6.6, rel=0.01)
    assert doc["k_p"] == pytest.approx(22.7, rel=0.01)
    assert doc["theorem1_ratio_ok"] is True


def test_gain_design_mppt_branch(capsys):
    # gain-design prints the design that simulate runs for the same config:
    # the MPPT one at eta = 1 and in either MPPT mode at the default eta
    for override in ("scenario.eta=1.0", "scenario.mode=GFM_MPPT",
                     "scenario.mode=GFL_MPPT"):
        rc = cli.main(["gain-design", "--set", override])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "no-droop"
        assert doc["m_p"] is None
        cfg = apply_overrides(load_config(None), [override])
        d = gains_for_scenario(make_plant(cfg), make_surface(cfg),
                               scenario_from_config(cfg))
        assert doc["eta"] == d.eta == 1.0
        assert doc["omega_del_pu"] == d.gains.omega_del
        assert doc["k_theta_msc"] == d.gains.msc.k_theta
        assert doc["k_p"] == d.gains.pitch.k_p == 0.0


def test_droop_map_csv(tmp_path, capsys):
    out = tmp_path / "map.csv"
    plot = tmp_path / "map.svg"
    rc = cli.main(["droop-map", "--out", str(out), "--plot", str(plot)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "v_w,eta,m_p,status"
    assert len(lines) == 1 + 10 * 5
    assert plot.read_text().startswith("<svg")


def test_smallsignal_json(capsys):
    rc = cli.main(["smallsignal"])
    assert rc == 0
    out = capsys.readouterr().out
    start = out.index("{")
    model_doc = json.loads(out[start:out.index("}\n{") + 1])
    assert model_doc["stable"] is True
    assert "lasalle_certified" in out


def test_compare_subcommand(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = cli.main(["compare", *FAST, "--out", str(out)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"GFL_MPPT", "GFM_MPPT", "GFM_FR"}
    assert doc["GFM_FR"]["nadir_hz"] > doc["GFL_MPPT"]["nadir_hz"]
    for name in doc:
        assert (tmp_path / f"cmp_{name}.csv").exists()


def test_compare_frees_each_run_before_the_next(tmp_path, monkeypatch, capsys):
    # compare held all three runs' kernel rows until it wrote anything
    refs = []  # weak references to each finished run's rows and f_g

    def run_scenario(*args, **kwargs):
        assert all(ref() is None for ref in refs)
        res = real(*args, **kwargs)
        refs.extend((weakref.ref(res.states), weakref.ref(res.trace.f_g)))
        return res

    real = harness.run_scenario
    monkeypatch.setattr(harness, "run_scenario", run_scenario)
    rc = cli.main(["compare", *FAST, "--out", str(tmp_path / "cmp.csv"),
                   "--plot", str(tmp_path / "cmp.svg")])
    assert rc == 0 and len(refs) == 6
    assert set(json.loads(capsys.readouterr().out)) == {
        "GFL_MPPT", "GFM_MPPT", "GFM_FR"}
    assert (tmp_path / "cmp.svg").read_text().startswith("<svg")


def _fail_nadir_ordering(monkeypatch):
    """GFL_MPPT, the first run, reports a nadir above the others'."""
    real = harness.compute_metrics
    calls = []

    def compute_metrics(*args, **kwargs):
        calls.append(None)
        m = real(*args, **kwargs)
        return replace(m, nadir_hz=60.0) if len(calls) == 1 else m

    monkeypatch.setattr(harness, "compute_metrics", compute_metrics)


def _fail_gfm_mppt_checks(monkeypatch):
    """GFM_MPPT, the second run, fails its steady-state checks."""
    real = harness.run_checks

    def run_checks(result):
        if result.scenario.mode == Mode.GFM_MPPT:
            raise HarnessAssertionError("GSC lost synchronism with the grid")
        real(result)

    monkeypatch.setattr(harness, "run_checks", run_checks)


@pytest.mark.parametrize("fail, passed, message", [
    (_fail_nadir_ordering, ["GFL_MPPT", "GFM_MPPT", "GFM_FR"],
     "nadir ordering violated"),
    (_fail_gfm_mppt_checks, ["GFL_MPPT"], "GSC lost synchronism")],
    ids=["nadir-ordering", "GFM_MPPT-checks"])
def test_failing_compare_leaves_the_passed_modes_csvs(
        tmp_path, monkeypatch, capsys, fail, passed, message):
    # the modes' CSVs are written as they pass their checks; the metrics
    # and the plot only once all three have passed and the nadirs are in
    # order
    fail(monkeypatch)
    rc = cli.main(["compare", *FAST, "--out", str(tmp_path / "cmp.csv"),
                   "--plot", str(tmp_path / "cmp.svg")])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("assertion failure: ") and message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"cmp_{name}.csv" for name in passed)
    for name in passed:
        tr = trace_from_csv((tmp_path / f"cmp_{name}.csv").read_text())
        assert tr.t[-1] == pytest.approx(40.0, abs=1e-9)


# (override, exit code per command).  compare loads and checks the config as
# simulate does, so unless a row says otherwise it exits as simulate does.
BAD_OVERRIDES = [
    ("scenario.v_w=0", {"simulate": 3, "gain-design": 3}),
    ("scenario.eta=0", {"simulate": 3, "gain-design": 3}),
    ("control.t_dc=0", {"simulate": 3, "gain-design": 3}),
    ("scenario.eta=1.5", {"simulate": 3, "gain-design": 3}),
    # gain-design never integrates, so only simulate sees the divergence
    ("scenario.dt=0.3", {"simulate": 2, "gain-design": 0}),
    ("scenario.dt=nan", {"simulate": 3, "gain-design": 3}),
    ("scenario.sample_dt=nan", {"simulate": 3, "gain-design": 3}),
    ("scenario.duration=inf", {"simulate": 3, "gain-design": 3}),
    ("scenario.sample_dt=0", {"simulate": 3, "gain-design": 3}),
    ("scenario.sample_dt=-0.5", {"simulate": 3, "gain-design": 3}),
    # a zero MSC gain floor breaks the design wherever headroom vanishes
    ("control.msc_floor=0", {"simulate": 3, "gain-design": 3}),
    ("turbine.v_rated=11.23", {"simulate": 3, "gain-design": 3}),
    ("control.k_d_gsc=-1", {"simulate": 3, "gain-design": 3}),
    ("turbine.omega_max=0", {"simulate": 3, "gain-design": 3}),
    ("turbine.omega_max=-1", {"simulate": 3, "gain-design": 3}),
    ("turbine.omega_max=NaN", {"simulate": 3, "gain-design": 3}),
    ("turbine.R=NaN", {"simulate": 3, "gain-design": 3}),
    ("scenario.events=5", {"simulate": 3, "gain-design": 3}),
    # NaN passed a `x <= 0` check: gain-design printed "m_p": NaN
    ("turbine.rho=NaN", {"simulate": 3, "gain-design": 3}),
    ("control.d_v_max=NaN", {"simulate": 3, "gain-design": 3}),
    ("sg.h_g=NaN", {"simulate": 3, "gain-design": 3}),
    ("network.b_g=NaN", {"simulate": 3, "gain-design": 3}),
    # target_droop was never validated: a UFuncTypeError, ValueError or
    # TypeError escaped
    *((f"control.target_droop={v}", {"simulate": 3, "gain-design": 3})
      for v in ("nan", "inf", "-inf", "x", "[1,2]", "{}", "NaN", "0")),
    # 1e400 parses as inf: every number must be finite
    *((o, {"simulate": 3, "gain-design": 3})
      for o in ("control.d_v_max=1e400", "scenario.v_w=inf",
                "scenario.v_w=1e400", "turbine.rho=1e400", "turbine.R=1e400")),
    # finite but beyond the design chain: an OverflowError or
    # CurtailmentError escaped
    *((o, {"simulate": 2, "gain-design": 2})
      for o in ("scenario.v_w=1e308", "turbine.R=1e308", "turbine.rho=1e308")),
    # the message names the key: it named "plant: turbine:" and "scenario:"
    ("turbine.rho=nan", {"simulate": 3, "gain-design": 3}),
    ("control.preset=[1,2]", {"simulate": 3, "gain-design": 3}),
    ("scenario.duration=10", {"simulate": 3, "gain-design": 3}),
    # compare indexed the first event (an IndexError escaped)
    ("scenario.events=[]", {"simulate": 0, "gain-design": 0, "compare": 3}),
    # an event in the 2 s settled tail: GFM runs failed their checks (exit 2)
    # and compare's metrics raised "trace too short" (exit 1)
    ("scenario.duration=31", {"simulate": 3, "gain-design": 3}),
    ("scenario.events=[[58.5,0.4]]", {"simulate": 3, "gain-design": 3}),
    # more RK4 steps than the compiled kernel's C int counts: the pure
    # kernel raised a MemoryError traceback for 1.24 TiB of rows (exit 1),
    # the compiled one an OverflowError (exit 2)
    ("scenario.duration=1e7", {"simulate": 3, "gain-design": 3}),
    ("scenario.dt=1e-12", {"simulate": 3, "gain-design": 3}),
    ("scenario.duration=1073741.824", {"simulate": 3, "gain-design": 3}),
    # the design chain runs in Python floats, which overflow to inf silently:
    # inf reached the deload table and the droop map, and gain-design printed
    # NaN and Infinity
    ("turbine.omega_nom=5e-324", {"simulate": 2, "gain-design": 2,
                                  "deload-table": 2, "droop-map": 2}),
    # an event off the dt grid: simulate and compare exited 2 with a
    # simulation failure, gain-design and smallsignal 0
    ("scenario.events=[[30.0001,0.4]]", {"simulate": 3, "gain-design": 3,
                                         "smallsignal": 3}),
]


def bad_override_cases():
    """A case per row and per command the row gives a code for, with the id
    override-codes<row>-command."""
    for i, (override, codes) in enumerate(BAD_OVERRIDES):
        codes = {"compare": codes["simulate"], **codes}
        for command, code in codes.items():
            yield pytest.param(command, override, code,
                               id=f"{override}-codes{i}-{command}")


@pytest.mark.parametrize("command, override, code", bad_override_cases())
def test_bad_overrides_keep_exit_contract(command, override, code, capsys):
    rc = cli.main([command, "--set", override])
    err = capsys.readouterr().err
    assert rc == code
    assert "Traceback" not in err
    if rc:
        assert err.count("\n") == 1
    if rc == 3:
        assert err.startswith("config error:")
        assert override.partition("=")[0] in err


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--out"), ("simulate", "--plot"), ("compare", "--out"),
    ("compare", "--plot"), ("deload-table", "--out"), ("droop-map", "--out"),
    ("droop-map", "--plot")])
def test_unwritable_output_is_an_output_error(tmp_path, command, flag, capsys):
    # deload-table --out into a missing directory exited 1 with a
    # FileNotFoundError traceback
    path = tmp_path / "missing" / "out.csv"
    args = FAST if command in ("simulate", "compare") else []
    rc = cli.main([command, *args, flag, str(path)])
    err = capsys.readouterr().err
    if (command, flag) == ("compare", "--out"):
        path = path.with_name("out_GFL_MPPT.csv")  # the first mode's trace
    assert rc == 3
    assert err == f"output error: cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize("argv", [
    ["gain-design", "--out", "g.json"], ["gain-design", "--plot", "s.svg"],
    ["smallsignal", "--out", "s.json"], ["smallsignal", "--plot", "s.svg"],
    ["deload-table", "--plot", "d.svg"]], ids=" ".join)
def test_output_flag_a_command_does_not_read_is_a_usage_error(
        tmp_path, monkeypatch, capsys, argv):
    # these calls exited 0 and wrote nothing
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: windgfm") and "Traceback" not in err
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_output_write_is_an_output_error(capsys):
    # the open succeeds; the write fails
    rc = cli.main(["deload-table", "--out", "/dev/full"])
    assert rc == 3
    assert capsys.readouterr().err == \
        "output error: cannot write /dev/full: No space left on device\n"


def test_kernel_memory_error_is_a_simulation_failure(monkeypatch, capsys):
    # rows that do not fit in memory: one line and exit 2, not a traceback
    def no_memory(*args):
        raise MemoryError("Unable to allocate 1.24 TiB for an array")

    monkeypatch.setattr(_kernel, "simulate", no_memory)
    rc = cli.main(["simulate"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "simulation failure: Unable to allocate 1.24 TiB for an array\n"


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_gfl_event_in_settled_tail_is_config_error(command, capsys):
    # GFL_MPPT runs skip the steady-state checks, so simulate reached the
    # metrics and exited 1 with a "trace too short" traceback
    rc = cli.main([command, "--set", "scenario.mode=GFL_MPPT",
                   "--set", "scenario.duration=31"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "scenario.events" in err


def test_compare_at_eta_1_passes(capsys):
    # at eta = 1 GFM_FR runs the MPPT design: its nadir is GFM_MPPT's, and
    # the ordering asks only that GFM_MPPT's is not below GFL_MPPT's
    rc = cli.main(["compare", *FAST, "--set", "scenario.eta=1.0"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["GFM_FR"] == doc["GFM_MPPT"]
    assert doc["GFM_MPPT"]["nadir_hz"] >= doc["GFL_MPPT"]["nadir_hz"]


# simulate's and compare's base run for the override fuzz: 12,500 RK4 steps
# at dt = sample_dt = 2 ms, the load step at 1 s.  On the default config
# both commands pass their checks (exit 0), so the fuzz reads their stdout.
FUZZ_RUN = ["--set", "scenario.duration=25",
            "--set", "scenario.events=[[1.0,0.4]]",
            "--set", "scenario.dt=0.002", "--set", "scenario.sample_dt=0.002"]
# A 3 s base of 6,000 RK4 steps, 4,000 of them integrated, with the load
# step's settled tail just inside the trace.  On the default config it fails
# its checks (exit 2): too short for the GSC to resynchronise.
SHORT_RUN = ["--set", "scenario.duration=3",
             "--set", "scenario.events=[[1.0,0.4]]"]
# Most RK4 steps an override may ask of FUZZ_RUN: runs with more steps but
# no more than plant.MAX_STEPS are valid and slow, and the fuzz skips them
FUZZ_MAX_STEPS = 10 ** 5


def fuzz_steps(overrides, run=FUZZ_RUN) -> float:
    """RK4 steps of the base run's --set arguments, then the (key, value)
    overrides, applied in order; 0 where they set an invalid duration or dt
    or more than MAX_STEPS steps, which the config rejects."""
    grid = {f"scenario.{k}": DEFAULT_CONFIG["scenario"][k]
            for k in ("duration", "dt")}
    base = [arg.partition("=")[::2] for arg in run[1::2]]
    for key, value in [*base, *overrides]:
        if key not in grid:
            continue
        try:
            x = json.loads(value)
        except json.JSONDecodeError:
            return 0
        if type(x) not in (int, float) or not 0 < x < math.inf:
            return 0
        grid[key] = x
    steps = grid["scenario.duration"] / grid["scenario.dt"]
    return steps if steps < MAX_STEPS + 0.5 else 0


OVERRIDE_KEYS = st.sampled_from([f"{s}.{k}" for s, keys in DEFAULT_CONFIG.items()
                                 for k in keys])
OVERRIDE_VALUES = st.one_of(
    st.sampled_from(["0", "-1", "1e308", "-1e308", "5e-324", "NaN",
                     "Infinity", "-Infinity", "nan", "inf", "null", "{}", "[]",
                     "[1,2]", "[[1,2]]", "true", "GFM_FR", '"x"', '{"a": 1}']),
    st.floats().map(repr), st.integers().map(str), st.text(max_size=8))
# A non-finite number as an output writes it: NaN and Infinity in JSON, nan
# and inf in a CSV
NON_FINITE = re.compile(r"\b(nan|NaN|Infinity|inf)\b")
# droop-map's m_p is inf in the cells without droop, whose status is
# no-droop, or infeasible under a target droop
NO_DROOP_CELL = re.compile(r",inf,(no-droop|infeasible)$", re.M)
# The pure kernel's bound in place of FUZZ_MAX_STEPS, on SHORT_RUN
PURE_FUZZ_MAX_STEPS = 10 ** 4


@contextlib.contextmanager
def pure_kernel():
    """The pure-Python kernel and CSV writer in place of the compiled ones."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("simulate", "csv_rows"):
            mp.setattr(_kernel, name, getattr(_ode_py, name))
        yield


def check_overrides(command, overrides, run=FUZZ_RUN):
    """Run command with each key=value of the (key, value) overrides
    (simulate and compare after the base run's arguments): it exits with 0,
    2 or 3, a config error names one of the keys, and it prints no
    non-finite number but droop-map's documented inf."""
    base = run if command in ("simulate", "compare") else []
    sets = [a for key, value in overrides for a in ("--set", f"{key}={value}")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([command, *base, *sets])
    assert rc in (0, 2, 3)
    if rc == 3:
        assert any(key in err.getvalue() for key, _ in overrides)
    text = out.getvalue()
    if command == "droop-map":
        text = NO_DROOP_CELL.sub("", text)
    assert not NON_FINITE.search(text), text


@settings(max_examples=900, deadline=None)
@given(key=OVERRIDE_KEYS, value=OVERRIDE_VALUES,
       command=st.sampled_from(["gain-design", "smallsignal", "simulate",
                                "compare", "deload-table", "droop-map"]))
# an int beyond int64 made numpy build an object array: a casting traceback
@example(key="network.b_g", value=str(2 ** 63 + 1), command="smallsignal")
@example(key="turbine.R", value=str(10 ** 400), command="gain-design")
@example(key="scenario.sample_dt", value="1", command="simulate")
def test_any_single_override_keeps_exit_contract(key, value, command):
    if command in ("simulate", "compare"):
        assume(fuzz_steps([(key, value)]) <= FUZZ_MAX_STEPS)
    check_overrides(command, [(key, value)])


@settings(max_examples=20, deadline=None)
@given(key=OVERRIDE_KEYS, value=OVERRIDE_VALUES)
def test_any_single_override_keeps_exit_contract_on_the_pure_kernel(key, value):
    assume(fuzz_steps([(key, value)], SHORT_RUN) <= PURE_FUZZ_MAX_STEPS)
    with pure_kernel():
        check_overrides("simulate", [(key, value)], SHORT_RUN)


@settings(max_examples=300, deadline=None)
@given(overrides=st.lists(st.tuples(OVERRIDE_KEYS, OVERRIDE_VALUES),
                          min_size=2, max_size=2),
       command=st.sampled_from(["gain-design", "simulate", "compare",
                                "smallsignal"]))
def test_any_two_overrides_keep_exit_contract(overrides, command):
    if command in ("simulate", "compare"):
        assume(fuzz_steps(overrides) <= FUZZ_MAX_STEPS)
    check_overrides(command, overrides)


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_fuzz_base_run_passes_its_checks(command, capsys):
    # the override fuzz reads a command's stdout only where it exits 0
    assert cli.main([command, *FUZZ_RUN]) == 0
    assert "GFM_FR" in json.loads(capsys.readouterr().out)


def test_pure_kernel_divergence_is_a_simulation_failure(capsys):
    # sin(inf) in an RK4 stage: math raised a ValueError traceback (exit 1)
    # where the compiled kernel carries NaN on to its divergence check
    argv = ["simulate", *SHORT_RUN, "--set", "sg.t_g=5e-324"]
    assert cli.main(argv) == 2
    compiled = capsys.readouterr().err
    with pure_kernel():
        assert cli.main(argv) == 2
    assert capsys.readouterr().err == compiled == \
        "simulation failure: state 0 diverged at t=1.000500\n"


def staged_env(tmp_path, kernel_build) -> dict:
    """The environment of a child interpreter that imports a copy of the
    package under tmp_path, with the session's compiled kernel if any."""
    mod, _ = kernel_build
    pkg = tmp_path / "windgfm"
    shutil.copytree(Path(windgfm.__file__).parent, pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if mod is not None:
        shutil.copy(mod.__file__, pkg / "_kernel")
    return dict(os.environ, PYTHONPATH=str(tmp_path))


@pytest.mark.parametrize("argv", [
    ["deload-table", "--out", "table.csv"],
    ["droop-map", "--out", "map.csv", "--plot", "map.svg"],
    ["gain-design"]], ids=lambda argv: argv[0])
def test_design_commands_do_not_import_numpy(tmp_path, kernel_build, argv):
    # importing numpy took about half of a design command's run time
    mod, _ = kernel_build
    env = staged_env(tmp_path, kernel_build)
    want = "python" if mod is None or os.environ.get("WINDGFM_PURE") else mod.BACKEND
    code = ("import sys, windgfm; from windgfm.cli import main; "
            "print(windgfm.KERNEL_BACKEND, 'numpy' in sys.modules); "
            "assert main(sys.argv[1:]) == 0; "
            "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == f"{want} False"
    assert lines[-1] == "False"


# compare on FAST, not SHORT_RUN: a 3 s run fails its checks (exit 2)
# before compare prints
@pytest.mark.parametrize("argv", [
    ["smallsignal"], ["gain-design"], ["deload-table"], ["compare", *FAST]],
    ids=lambda argv: argv[0])
def test_closed_stdout_is_an_output_error(tmp_path, kernel_build, argv):
    # smallsignal | head -1 exited 1 with a BrokenPipeError traceback
    code = "import sys; from windgfm.cli import main; sys.exit(main())"
    proc = subprocess.Popen([sys.executable, "-c", code, *argv], cwd=tmp_path,
                            env=staged_env(tmp_path, kernel_build),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # before the child writes anything
    err = proc.stderr.read().decode()
    assert proc.wait() == 3
    assert err == "output error: stdout closed\n"
