"""End-to-end acceptance battery for the toolkit.

Each test encodes one published-behavior criterion at its stated tolerance;
see the README for the study-system context.
"""
import math
import time

import numpy as np
import pytest

from windgfm import smallsignal as ss
from windgfm.aero import CpSurface, TurbineParams, cp, find_mpp
from windgfm.curtailment import deload_point, solve_speed_deload_target
from windgfm.gaindesign import (
    DesignSpec, design_gains, droop_coefficient, droop_map, max_msc_gain,
    max_pitch_gain,
)
from windgfm.harness import Scenario, compare_modes, run_scenario, trace_to_csv
from windgfm.plant import LoadProfile, Mode, find_equilibrium, simulate
from windgfm._kernel.layout import N_STATES, P_BG, P_BM, P_CDC, ROW

from test_smallsignal import numerical_jacobian, reduced_rhs


# --------------------------------------------------------------------------
# 1. droop formula reproduces the published design table
# --------------------------------------------------------------------------
def test_criterion_1_droop_formula_table():
    t0 = time.perf_counter()
    assert droop_coefficient(0.5, 15.1, 0.119, 0.0, 0.0) == pytest.approx(
        0.277, abs=0.005)
    assert droop_coefficient(0.5, 6.6, 0.082, 0.02, 22.7) == pytest.approx(
        0.142, abs=0.005)
    assert droop_coefficient(0.5, 1.0, 0.0, 0.083, 270.0) == pytest.approx(
        0.023, abs=0.002)
    assert time.perf_counter() - t0 < 1.0


# --------------------------------------------------------------------------
# 2. gain-design rule reproduces the published gains
# --------------------------------------------------------------------------
def test_criterion_2_gain_design_table():
    spec = DesignSpec(d_omega_max=0.01)
    assert max_msc_gain(spec, 0.5, 1.16, 0.858) == pytest.approx(15.1, rel=0.01)
    assert max_msc_gain(spec, 0.5, 1.2, 1.068) == pytest.approx(6.6, rel=0.01)
    assert max_pitch_gain(spec, 0.5, 6.6, 3.0) == pytest.approx(22.7, rel=0.01)
    assert max_pitch_gain(spec, 0.5, 1.0, 5.4) == pytest.approx(270.0, rel=0.01)
    # oracle for the back-solved MPP speeds: lambda_mpp * v_w / (R omega_nom)
    tb = TurbineParams()
    lam_mpp, _ = find_mpp(CpSurface())
    assert lam_mpp * 8.0 / (tb.R * tb.omega_nom) == pytest.approx(0.858,
                                                                  rel=0.01)
    assert lam_mpp * 10.0 / (tb.R * tb.omega_nom) == pytest.approx(1.068,
                                                                   rel=0.01)


# --------------------------------------------------------------------------
# 3. randomized stability + LaSalle certificate suite
# --------------------------------------------------------------------------
def test_criterion_3_theorem1_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n_ok = 0
    for _ in range(200):
        j_g, j_wt, c_dc, t_g, b_g, b_msc = rng.uniform(0.1, 10.0, size=6)
        k_g = rng.uniform(0.1, 10.0)
        ktg, ktm = rng.uniform(0.05, 20.0, size=2)
        kdg = rng.uniform(0.0, 20.0)
        kdm = kdg * ktm / ktg          # matched ratio per the theorem
        k_wt = rng.uniform(0.0, 5.0)
        om_del = rng.uniform(0.8, 1.2)
        assert ss.theorem1_conditions(ktg, kdg, ktm, kdm, k_wt)
        m = ss.SmallSignalModel(j_g=j_g, j_wt=j_wt * om_del, c_dc=c_dc,
                                t_g=t_g, k_g=k_g, b_g=b_g, b_msc=b_msc,
                                k_theta_gsc=ktg, k_d_gsc=kdg,
                                k_theta_msc=ktm, k_d_msc=kdm, k_wt=k_wt)
        lam, stable = ss.stability_verdict(m)
        assert stable, f"unstable draw: max Re = {lam.real.max():.3e}"
        rep = ss.lasalle_verify(m)
        assert rep.m_positive_definite
        assert rep.max_eig_S <= 1e-9
        n_ok += 1
    assert n_ok == 200
    assert time.perf_counter() - t0 < 30.0


# --------------------------------------------------------------------------
# 4. numerical Jacobian of the nonlinear reduced loop matches T^-1 A
# --------------------------------------------------------------------------
def test_criterion_4_linearization_consistency(plant, surface):
    for v_w in (8.0, 10.0, 12.0):
        d = design_gains(plant.turbine, surface, v_w, 0.9)
        model = ss.model_from_params(plant, d.gains, d.k_wr, d.k_b)
        f = reduced_rhs(model, plant.turbine, surface, v_w,
                        d.gains.omega_del, d.gains.beta_del,
                        d.gains.k_p)
        J = numerical_jacobian(f, np.zeros(6))
        Asys = ss.system_matrix(model)
        assert np.max(np.abs(J - Asys)) < 1e-8, f"mismatch at {v_w} m/s"


# --------------------------------------------------------------------------
# 5. curtailment solver residuals and monotonicity
# --------------------------------------------------------------------------
def test_criterion_5_curtailment_residuals(turbine, surface):
    lam_mpp, cp_max = find_mpp(surface)
    eta_grid = np.array([0.7, 0.775, 0.85, 0.925, 0.99])
    v_grid = np.array([5.0, 6.5, 8.0, 9.5, 11.0, 12.5, 14.0])
    for eta in eta_grid:
        for v_w in v_grid:
            pt = deload_point(turbine, surface, v_w, eta)
            k3 = turbine.swept_k * v_w ** 3
            target = eta * min(cp_max * k3, turbine.P_rated) / k3
            resid = abs(cp(surface, pt.lam_del, pt.beta_del) - target)
            assert resid < 1e-9, f"residual {resid:.2e} at ({v_w}, {eta})"
    # lambda_del non-increasing in eta (pure overspeed branch)
    lams = [solve_speed_deload_target(surface, e * cp_max, lam_mpp, cp_max)
            for e in eta_grid]
    assert all(a >= b - 1e-12 for a, b in zip(lams, lams[1:]))


# --------------------------------------------------------------------------
# 6. closed-loop steady-state relations on the three study scenarios
# --------------------------------------------------------------------------
def test_criterion_6_closed_loop_steady_state(plant, surface):
    t0 = time.perf_counter()
    for v_w in (8.0, 10.0, 12.0):
        sc = Scenario(mode=Mode.GFM_FR, v_w=v_w, eta=0.9,
                      load=LoadProfile(base=2.0, events=((30.0, 0.4),)),
                      duration=60.0, dt=5e-4)
        res = run_scenario(plant, surface, sc, check=True)
        gains = res.design.gains
        states = res.states
        tail = dict(zip(ROW, states[states[:, 0] >= 58.0].T))
        om_g = tail["omega_g"].mean()
        v = tail["v_dc"].mean()
        om_r = tail["omega_r"].mean()
        xg = tail["x_gsc"].mean()
        xm = tail["x_msc"].mean()
        dv = v - 1.0
        # both converters settled: filter state equals its input
        yg = (gains.gsc.k_theta - gains.gsc.k_d / gains.t_dc) * xg \
            + (gains.gsc.k_d / gains.t_dc) * dv
        ym = (gains.msc.k_theta - gains.msc.k_d / gains.t_dc) * xm \
            + (gains.msc.k_d / gains.t_dc) * dv
        om_gsc = 1.0 + yg
        om_msc = gains.omega_del + ym
        # dual-port proportionalities
        assert abs((om_gsc - 1.0) - gains.gsc.k_theta * dv) < 1e-3
        assert abs((om_msc - gains.omega_del) - gains.msc.k_theta * dv) < 1e-3
        # synchronization
        assert abs(om_gsc - om_g) < 1e-4
        assert abs(om_msc - om_r) < 1e-4
        # measured droop within 2% of the design value
        tr = res.trace
        tail_tr = tr.t >= 58.0
        d_p_wt = tr.p_wt[tail_tr].mean() - res.p_wt0
        m_meas = -(om_g - 1.0) / d_p_wt
        assert m_meas == pytest.approx(res.design.m_p, rel=0.02)
    assert time.perf_counter() - t0 < 60.0


# --------------------------------------------------------------------------
# 7. mode-comparison ordering and disturbance signatures
# --------------------------------------------------------------------------
def test_criterion_7_mode_comparison(plant, surface):
    for v_w in (8.0, 10.0, 12.0):
        base = Scenario(mode=Mode.GFM_FR, v_w=v_w, eta=0.9)
        runs = list(compare_modes(plant, surface, base))
        assert [name for name, _, _ in runs] == ["GFL_MPPT", "GFM_MPPT",
                                                 "GFM_FR"]
        metrics = {name: m for name, _, m in runs}
        results = {name: res for name, res, _ in runs}
        n = {k: m.nadir_hz for k, m in metrics.items()}
        assert n["GFM_FR"] > n["GFM_MPPT"] >= n["GFL_MPPT"], f"at {v_w} m/s"
        f_ss = {k: m.f_ss_hz for k, m in metrics.items()}
        assert f_ss["GFM_FR"] > max(f_ss["GFM_MPPT"], f_ss["GFL_MPPT"])
        # disturbance signatures on the GFM runs: DC voltage dips and the
        # rotor decelerates to release kinetic energy
        for name in ("GFM_FR", "GFM_MPPT"):
            tr = results[name].trace
            post = tr.t >= 30.0
            assert tr.v_dc[post].min() < 1.0 - 1e-4
            assert tr.omega_r[post].min() < tr.omega_r[0] - 1e-4
        # pitch decreases after the step at the pitch-deloaded winds
        if v_w >= 10.0:
            tr = results["GFM_FR"].trace
            post = tr.t >= 30.0
            assert tr.beta[0] > 0.0
            assert tr.beta[post].min() < tr.beta[0] - 1e-3


# --------------------------------------------------------------------------
# 8. droop map: qualitative shape over the 10x5 grid
# --------------------------------------------------------------------------
def test_criterion_8_droop_map_shape(turbine, surface):
    v_grid = np.linspace(5.0, 14.0, 10)
    eta_grid = np.array([0.7, 0.8, 0.9, 0.95, 1.0])
    m, status = droop_map(turbine, surface, v_grid, eta_grid)
    m = np.array(m)  # nested lists indexed [i][j]
    assert all(row[-1] == "no-droop" for row in status)
    assert np.all(np.isinf(m[:, -1]))
    finite = m[:, :-1]
    assert np.all(np.isfinite(finite))
    # non-increasing in wind speed at fixed curtailment
    assert np.all(np.diff(finite, axis=0) <= 1e-12)
    # non-increasing as eta decreases at fixed wind (deeper reserve, stiffer)
    assert np.all(np.diff(finite, axis=1) >= -1e-12)


# --------------------------------------------------------------------------
# 9. numerics: RK4 order, DC energy residual, determinism
# --------------------------------------------------------------------------
def test_criterion_9a_rk4_convergence_order(plant, surface):
    d = design_gains(plant.turbine, surface, 8.0, 0.9)
    load0 = LoadProfile(base=2.0, events=())
    x0, p_arr, _ = find_equilibrium(plant, d.gains, surface, 8.0, load0,
                                    Mode.GFM_FR)
    # step applied at t = 0 so the integrand is smooth over the whole window
    load = LoadProfile(base=2.4, events=())
    ends = []
    for dt in (4e-3, 2e-3, 1e-3):
        states = simulate(x0, p_arr, Mode.GFM_FR, load, 2.0, dt, sample_dt=2.0)
        ends.append(states[-1, 1:1 + N_STATES])
    d1 = np.linalg.norm(ends[0] - ends[1])
    d2 = np.linalg.norm(ends[1] - ends[2])
    order = math.log2(d1 / d2)
    assert order >= 3.8, f"observed order {order:.2f}"


def test_criterion_9b_dc_energy_residual(plant, surface):
    d = design_gains(plant.turbine, surface, 8.0, 0.9)
    load = LoadProfile(base=2.0, events=((1.0, 0.4),))
    x0, p_arr, _ = find_equilibrium(plant, d.gains, surface, 8.0, load,
                                    Mode.GFM_FR)
    dt = 5e-4
    states = simulate(x0, p_arr, Mode.GFM_FR, load, 4.0, dt, sample_dt=dt)
    col = dict(zip(ROW, states.T))
    v, rho1, rho2 = col["v_dc"], col["rho_1"], col["rho_2"]
    # midpoint-rule power balance across each step:
    # C_dc v dv/dt = P_pmsg - P_gsc
    v_mid = 0.5 * (v[1:] + v[:-1])
    dv = (v[1:] - v[:-1]) / dt
    p_pm = p_arr[P_BM] * np.sin(0.5 * (rho2[1:] + rho2[:-1]))
    p_gs = p_arr[P_BG] * np.sin(0.5 * (rho1[1:] + rho1[:-1]))
    resid = np.abs(p_arr[P_CDC] * v_mid * dv - (p_pm - p_gs))
    # exclude the step instant itself (discontinuous forcing)
    mask = np.abs(0.5 * (states[1:, 0] + states[:-1, 0]) - 1.0) > dt
    assert resid[mask].max() < 1e-6


def test_criterion_9c_byte_identical_repeat_runs(plant, surface):
    sc = Scenario(duration=40.0, load=LoadProfile(events=((10.0, 0.4),)))
    a = run_scenario(plant, surface, sc)
    b = run_scenario(plant, surface, sc)
    assert a.states.tobytes() == b.states.tobytes()
    assert trace_to_csv(a.trace) == trace_to_csv(b.trace)
