"""Scenario runner, frequency metrics, mode comparison, and CSV emission."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import _kernel
from ._kernel.layout import ROW
from .aero import CpSurface
# config defines Scenario and its design rule without numpy, for the design
# commands; harness still exports them.
from .config import (
    SETTLE_WINDOW, HarnessAssertionError, Scenario, gains_for_scenario,
    make_plant, make_surface, scenario_from_config,
)
from .control import pd_filter_realization
from .gaindesign import GainDesign
from .plant import Mode, PlantParams, find_equilibrium, simulate

TRACE_COLUMNS = ("t", "f_g", "f_gsc", "v_dc", "omega_r", "beta",
                 "P_wt", "P_gsc", "P_g")
# Smallest steady-state |ΔP_wt| (pu) a measured droop is computed from.
# Where P_wt is held (GFL_MPPT, GFM_MPPT below rated) ΔP_wt is numerical
# noise, 4e-5 pu and less, and compute_metrics reports no droop.
DROOP_DP_FLOOR = 1e-4
# Window (s) of the frequency difference a RoCoF is measured over.
ROCOF_WINDOW = 0.1
# Rows of a trace CSV formatted per writer call: enough to amortise the
# call's numpy work, few enough that a block's text (about 85 kB) never shows
# in peak memory.  Before the first load step the trace sits on an exact
# fixed point of the RK4 step, so a column there holds one value, bit for
# bit, across whole blocks; the pure writer formats such a column once per
# block.
BLOCK = 512

@dataclass(frozen=True)
class SimTrace:
    t: np.ndarray
    f_g: np.ndarray
    f_gsc: np.ndarray
    v_dc: np.ndarray
    omega_r: np.ndarray
    beta: np.ndarray
    p_wt: np.ndarray
    p_gsc: np.ndarray
    p_g: np.ndarray

    def column(self, name: str) -> np.ndarray:
        return getattr(self, name.lower())

    def __post_init__(self):
        for name in TRACE_COLUMNS:
            col = self.column(name)
            if col.shape != self.t.shape or not np.all(np.isfinite(col)):
                raise ValueError(f"bad trace column {name}")


@dataclass(frozen=True)
class RunResult:
    trace: SimTrace
    design: GainDesign
    states: np.ndarray      # kernel rows, columns layout.ROW
    p_wt0: float
    scenario: Scenario


@dataclass(frozen=True)
class FrequencyMetrics:
    nadir_hz: float
    t_nadir_s: float
    rocof_hz_per_s: float
    f_ss_hz: float
    dv_dc_ss_pu: float
    droop_measured: float | None


def run_scenario(plant: PlantParams, surface: CpSurface, scenario: Scenario,
                 check: bool = True) -> RunResult:
    design = gains_for_scenario(plant, surface, scenario)
    gains = design.gains
    x0, p_arr, p_wt0 = find_equilibrium(plant, gains, surface, scenario.v_w,
                                        scenario.load, scenario.mode)
    states = simulate(x0, p_arr, scenario.mode, scenario.load,
                      scenario.duration, scenario.dt, scenario.sample_dt)
    trace = _trace_from_states(plant.network.f_hz, states)
    result = RunResult(trace=trace, design=design, states=states,
                       p_wt0=p_wt0, scenario=scenario)
    if check:
        run_checks(result)
    return result


def _trace_from_states(f_base: float, states: np.ndarray) -> SimTrace:
    """The trace's columns, sliced from the kernel's rows."""
    c = dict(zip(ROW, states.T))  # views of the kernel's columns
    return SimTrace(t=c["t"], f_g=f_base * c["omega_g"],
                    f_gsc=f_base * c["w_gsc"], v_dc=c["v_dc"],
                    omega_r=c["omega_r"], beta=c["beta"], p_wt=c["P_wt"],
                    p_gsc=c["P_gsc"], p_g=c["P_g"])


def _rows_from(t: np.ndarray, t0: float) -> slice:
    """The rows of the increasing t at t0 and after."""
    return slice(int(np.searchsorted(t, t0)), None)


def _settled(t: np.ndarray) -> slice:
    """The settled tail: the rows of the last SETTLE_WINDOW seconds."""
    return _rows_from(t, t[-1] - SETTLE_WINDOW)


def run_checks(result: RunResult) -> None:
    """Steady-state invariant checks after a run (raises on violation)."""
    sc = result.scenario
    if sc.mode == Mode.GFL_MPPT:
        return
    gains = result.design.gains
    tail = dict(zip(ROW, result.states[_settled(result.trace.t)].T))
    om_g = tail["omega_g"].mean()
    dv = tail["v_dc"].mean() - 1.0
    om_r = tail["omega_r"].mean()
    ym, _ = pd_filter_realization(gains.msc.k_theta, gains.msc.k_d,
                                  gains.t_dc, tail["x_msc"].mean(), dv)
    om_gsc = tail["w_gsc"].mean()
    om_msc = gains.omega_del + ym
    if abs((om_gsc - 1.0) - gains.gsc.k_theta * dv) >= 1e-3:
        raise HarnessAssertionError("GSC frequency/DC-voltage relation violated")
    if abs((om_msc - gains.omega_del) - gains.msc.k_theta * dv) >= 1e-3:
        raise HarnessAssertionError("MSC frequency/DC-voltage relation violated")
    # Near the MPP the rotor stiffness vanishes and the rotor-tracking mode
    # settles with a ~30 s time constant, so MPPT runs shorter than ~3 min
    # cannot reach the tight synchronization bound; use a relaxed one there.
    # Of gains_for_scenario's designs only the frequency-response one is
    # curtailed.
    fr = result.design.point.eta < 1.0
    sync_tol = 1e-4 if fr else 5e-3
    if abs(om_gsc - om_g) >= sync_tol:
        raise HarnessAssertionError("GSC lost synchronism with the grid")
    if abs(om_msc - om_r) >= sync_tol:
        raise HarnessAssertionError("MSC lost synchronism with the rotor")
    d_p_wt = tail["P_wt"].mean() - result.p_wt0
    if not fr:
        if abs(d_p_wt) >= 0.005:
            raise HarnessAssertionError(
                f"MPPT steady-state power shifted by {d_p_wt:+.4f} pu")
    elif math.isfinite(result.design.m_p) and sc.load.events:
        d_om = om_g - 1.0
        if abs(d_p_wt) > 1e-9:
            m_meas = -d_om / d_p_wt
            if abs(m_meas / result.design.m_p - 1.0) >= 0.02:
                raise HarnessAssertionError(
                    f"measured droop {m_meas:.4f} deviates from design "
                    f"{result.design.m_p:.4f} by more than 2%")


def compute_metrics(trace: SimTrace, t_event: float,
                    f_base: float) -> FrequencyMetrics:
    if trace.t[-1] < t_event + SETTLE_WINDOW:
        raise ValueError("trace too short for metrics")
    post = _rows_from(trace.t, t_event)
    pre = slice(post.start)
    i_nadir = post.start + int(np.argmin(trace.f_g[post]))
    tail = _settled(trace.t)
    f_ss = float(trace.f_g[tail].mean())
    dv_ss = float(trace.v_dc[tail].mean() - trace.v_dc[pre].mean())
    dt_s = float(trace.t[1] - trace.t[0])
    w = max(int(round(ROCOF_WINDOW / dt_s)), 1)
    df = np.abs(trace.f_g[w:] - trace.f_g[:-w])
    rocof = float(df.max() / (w * dt_s))
    d_p_wt = float(trace.p_wt[tail].mean() - trace.p_wt[pre].mean())
    d_om = (f_ss - float(trace.f_g[pre].mean())) / f_base
    droop = -d_om / d_p_wt if abs(d_p_wt) >= DROOP_DP_FLOOR else None
    return FrequencyMetrics(nadir_hz=float(trace.f_g[i_nadir]),
                            t_nadir_s=float(trace.t[i_nadir]),
                            rocof_hz_per_s=rocof, f_ss_hz=f_ss,
                            dv_dc_ss_pu=dv_ss, droop_measured=droop)


def compare_modes(plant: PlantParams, surface: CpSurface, base: Scenario):
    """Run GFL_MPPT, GFM_MPPT and GFM_FR on base's disturbance, one at a
    time: yield (mode name, RunResult, FrequencyMetrics) of each run that
    passes its checks, then check the nadir ordering.  No run is held
    through the next, so the caller holds at most the one it keeps."""
    nadir = {}
    for mode in (Mode.GFL_MPPT, Mode.GFM_MPPT, Mode.GFM_FR):
        res = run_scenario(plant, surface, replace(base, mode=mode))
        m = compute_metrics(res.trace, base.load.events[0][0],
                            f_base=plant.network.f_hz)
        nadir[mode.name] = m.nadir_hz
        yield mode.name, res, m
        del res
    n_fr, n_mp, n_gfl = nadir["GFM_FR"], nadir["GFM_MPPT"], nadir["GFL_MPPT"]
    # At eta = 1 GFM_FR runs the MPPT design, so its nadir is GFM_MPPT's.
    if (base.eta < 1.0 and not n_fr > n_mp) or not n_mp >= n_gfl:
        raise HarnessAssertionError(
            f"nadir ordering violated: FR={n_fr:.4f} MPPT={n_mp:.4f} "
            f"GFL={n_gfl:.4f}")


def trace_csv(trace: SimTrace):
    """The CSV text of a trace in parts: the header, then the rows of each
    block of BLOCK rows.  Every value is written with %.17g, so it reads
    back bit for bit."""
    yield ",".join(TRACE_COLUMNS) + "\n"
    cols = [trace.column(c) for c in TRACE_COLUMNS]
    for i in range(0, trace.t.size, BLOCK):
        yield _kernel.csv_rows([c[i:i + BLOCK] for c in cols])


def trace_to_csv(trace: SimTrace) -> str:
    """The CSV text of a trace, whole."""
    return "".join(trace_csv(trace))


def metrics_to_json(metrics: dict) -> str:
    return json.dumps({k: asdict(m) for k, m in metrics.items()}, indent=2,
                      sort_keys=True)


def run_from_config(cfg: dict, check: bool = True) -> RunResult:
    plant = make_plant(cfg)
    surface = make_surface(cfg)
    scenario = scenario_from_config(cfg)
    return run_scenario(plant, surface, scenario, check=check)
