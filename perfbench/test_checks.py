"""Tests of the benchmark's own output checks: each accepts the program's
output and rejects a slightly perturbed copy.

Run from the repository root: python3 -m pytest perfbench -q
(builds the staged compiled kernel on first use, about 5 s).
"""
import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import build
import checks
import run

sys.path.insert(0, str(build.ensure_stage()))

from windgfm import curtailment, gaindesign, harness  # noqa: E402
from windgfm.config import DEFAULT_CONFIG, make_surface, make_turbine  # noqa: E402

CFG = copy.deepcopy(DEFAULT_CONFIG)


@pytest.fixture(scope="module")
def trace():
    res = harness.run_from_config(copy.deepcopy(CFG))
    return {c: res.trace.column(c).copy() for c in harness.TRACE_COLUMNS}


def test_trace_check_accepts_the_default_run(trace):
    checks.check_trace(trace, CFG)


def test_trace_check_rejects_shifted_p_g(trace):
    shifted = dict(trace, P_g=trace["P_g"] + 1e-3)
    with pytest.raises(checks.CheckError, match="P_g"):
        checks.check_trace(shifted, CFG)


def test_trace_check_rejects_p_g_shifted_after_the_step(trace):
    p_g = trace["P_g"].copy()
    p_g[trace["t"] >= 30.0] += 1e-3
    with pytest.raises(checks.CheckError, match="balance"):
        checks.check_trace(dict(trace, P_g=p_g), CFG)


def test_trace_check_rejects_a_droop_off_design(trace):
    p_wt = trace["P_wt"].copy()
    p_wt[trace["t"] >= 30.0] *= 1.01
    with pytest.raises(checks.CheckError, match="droop"):
        checks.check_trace(dict(trace, P_wt=p_wt), CFG)


@pytest.fixture(scope="module")
def deload_csv():
    # A grid clear of the 7.5 and 8.5 m/s rows the program gets wrong.
    table = curtailment.build_table(make_turbine(CFG), make_surface(CFG),
                                    v_grid=np.arange(4.0, 14.01, 1.0))
    return curtailment.table_to_csv(table)


def test_deload_check_accepts_the_program_table(deload_csv):
    checks.check_deload_table(deload_csv, CFG)


@pytest.mark.parametrize("row", [1, 40, 70])
def test_deload_check_rejects_a_nudged_omega_del(deload_csv, row):
    lines = deload_csv.split("\n")
    cells = lines[row].split(",")
    cells[3] = repr(float(cells[3]) * (1 + 1e-6))
    lines[row] = ",".join(cells)
    with pytest.raises(checks.CheckError, match="deload row"):
        checks.check_deload_table("\n".join(lines), CFG)


def test_byte_check_rejects_one_changed_byte(trace):
    text = harness.trace_to_csv(harness.SimTrace(
        **{c.lower(): v[:2000] for c, v in trace.items()})).encode()
    checks.check_same_bytes(text, bytes(text), "CSV")
    i = len(text) // 2
    changed = text[:i] + bytes([text[i] ^ 1]) + text[i + 1:]
    with pytest.raises(checks.CheckError, match=f"byte {i}"):
        checks.check_same_bytes(text, changed, "CSV")


@pytest.fixture(scope="module")
def droop_csv():
    v_grid = np.linspace(5.0, 14.0, 10)
    eta_grid = np.array([0.7, 0.8, 0.9, 0.95, 1.0])
    m, status = gaindesign.droop_map(make_turbine(CFG), make_surface(CFG),
                                     v_grid, eta_grid, gaindesign.DesignSpec())
    return gaindesign.droop_map_to_csv(v_grid, eta_grid, m, status)


def test_droop_map_check_accepts_the_program_map(droop_csv):
    checks.check_droop_map(droop_csv)


def test_droop_map_check_rejects_a_non_monotone_row(droop_csv):
    lines = droop_csv.split("\n")
    a, b = lines[22].split(","), lines[23].split(",")   # v_w = 9: eta 0.8, 0.9
    a[2], b[2] = b[2], a[2]
    lines[22], lines[23] = ",".join(a), ",".join(b)
    with pytest.raises(checks.CheckError, match="does not rise"):
        checks.check_droop_map("\n".join(lines))


def test_droop_map_check_rejects_a_finite_eta_one_cell(droop_csv):
    text = droop_csv.replace("inf,no-droop", "1.5,ok", 1)
    with pytest.raises(checks.CheckError, match="eta = 1"):
        checks.check_droop_map(text)


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = set(run.SPAN_METRICS) | {f"cli.{c}.s" for c in run.CLI_COMMANDS} | {
        "kernel.cython.ksteps_per_s", "kernel.python.ksteps_per_s",
        "import.cli_s", "import.scipy_linalg", "trace.overhead_s"}
    assert set(names) == printed
    assert all(run.unit_of(n) == u for n, u in names.items())
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "pass_s",
                                                       "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(run.workloads.WORKLOADS)
