import math
from dataclasses import replace

import numpy as np
import pytest

from windgfm.config import apply_overrides, make_plant
from windgfm.harness import gains_for_scenario, run_from_config, Scenario
from windgfm import _kernel
from windgfm.plant import (
    LoadProfile, Mode, NetworkParams, PlantError, SgParams, find_equilibrium,
    simulate, wind_power_pu,
)
from windgfm._kernel.layout import (
    N_STATES, P_BG, P_BM, P_CDC, P_OMMAX, ROW, STATES,
)
from windgfm.aero import cp


def rk4_step(f, x, t: float, dt: float):
    """Classical RK4 step for a generic vector field f(x, t)."""
    x = np.asarray(x, dtype=float)
    k1 = np.asarray(f(x, t))
    k2 = np.asarray(f(x + 0.5 * dt * k1, t + 0.5 * dt))
    k3 = np.asarray(f(x + 0.5 * dt * k2, t + 0.5 * dt))
    k4 = np.asarray(f(x + dt * k3, t + dt))
    return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# index of a state in a state vector, and of a column in the kernel's rows
S = {name: k for k, name in enumerate(STATES)}
COL = {name: k for k, name in enumerate(ROW)}


def equilibrium(plant, surface, v_w=8.0, eta=0.9, mode=Mode.GFM_FR,
                load=LoadProfile()):
    sc = Scenario(mode=mode, v_w=v_w, eta=eta, load=load)
    design = gains_for_scenario(plant, surface, sc)
    return design, find_equilibrium(plant, design.gains, surface, v_w, load, mode)


def test_pmsg_power_example(plant, surface):
    _, (x0, p_arr, p_wt0) = equilibrium(plant, surface)
    p = p_arr.copy()
    p[P_BM] = 1.5
    x = x0.copy()
    x[S["rho_2"]] = 0.1         # theta_r - theta_msc = 0.1
    x[S["rho_1"]] = 0.0         # no GSC power
    d = _kernel.derivative(x, 0.0, p, int(Mode.GFM_FR), 2.0)
    p_pmsg = p[P_CDC] * x[S["v_dc"]] * d[S["v_dc"]]
    assert p_pmsg == pytest.approx(0.14975, abs=1e-5)


def test_gsc_power_antisymmetry(plant, surface):
    _, (x0, p_arr, p_wt0) = equilibrium(plant, surface)
    p = p_arr.copy()
    p[P_BG] = 1.3

    def p_gsc(rho1):
        x = x0.copy()
        x[S["rho_1"]] = rho1    # theta_gsc - theta_g
        x[S["rho_2"]] = 0.0     # no machine-side power
        d = _kernel.derivative(x, 0.0, p, int(Mode.GFM_FR), 2.0)
        return -p[P_CDC] * x[S["v_dc"]] * d[S["v_dc"]]

    assert p_gsc(0.5 - 0.2) == pytest.approx(1.3 * math.sin(0.3), abs=1e-14)
    assert p_gsc(0.5 - 0.2) == pytest.approx(-p_gsc(0.2 - 0.5), abs=1e-15)


def test_sg_per_unit_conversion():
    sg = SgParams()
    assert sg.j_g(50e6) == pytest.approx(2 * 4.0 * 210e6 / 50e6, abs=1e-12)
    assert sg.k_g(50e6) == pytest.approx((210e6 / 50e6) / 0.05, abs=1e-12)


def test_parameter_validation():
    with pytest.raises(ValueError):
        SgParams(h_g=0.0)
    with pytest.raises(ValueError):
        NetworkParams(b_g=-1.0)


def test_load_profile_steps(plant, surface):
    load = LoadProfile(base=2.0, events=((30.0, 0.4), (45.0, -0.1)))
    assert load.ev_times == (30.0, 45.0)
    assert load.ev_steps == (0.4, -0.1)
    # the SG swing row sees base + every event at or before t
    _, (x0, p_arr, p_wt0) = equilibrium(plant, surface)
    j_g = plant.sg.j_g(plant.network.s_base)
    for t, dp in ((0.0, 0.0), (29.999, 0.0), (30.0, 0.4), (50.0, 0.3)):
        d = _kernel.derivative(x0, t, p_arr, int(Mode.GFM_FR), load.base,
                               load.ev_times, load.ev_steps)
        assert d[S["omega_g"]] == pytest.approx(-dp / j_g, abs=1e-12), t


def test_rk4_linear_oracle():
    # x' = -x over t = 0.1 in one step: e^-0.1 to RK4 truncation accuracy
    x = rk4_step(lambda x, t: -x, np.array([1.0]), 0.0, 0.1)
    assert x[0] == pytest.approx(math.exp(-0.1), abs=1e-7)


def test_equilibrium_residual_is_tiny(plant, surface):
    for mode in (Mode.GFM_FR, Mode.GFM_MPPT, Mode.GFL_MPPT):
        _, (x0, p_arr, p_wt0) = equilibrium(plant, surface, mode=mode)
        resid = _kernel.derivative(x0, 0.0, p_arr, int(mode), 2.0)
        assert np.max(np.abs(resid)) < 1e-10
        assert x0[S["v_dc"]] == 1.0 and x0[S["omega_g"]] == 1.0


def test_equilibrium_rejects_a_nan_residual(plant, surface):
    # at s_base = 1e-300, J_g, K_g and J_wt are inf, and the P_g row of the
    # derivative is inf * 0 = NaN, which a `resid > 1e-9` test lets through
    tiny = replace(plant, network=replace(plant.network, s_base=1e-300))
    with pytest.raises(PlantError,
                       match="^equilibrium residual nan exceeds 1e-9$"):
        equilibrium(tiny, surface)


def test_equilibrium_angles_match_power(plant, surface):
    _, (x0, p_arr, p_wt0) = equilibrium(plant, surface)
    assert p_arr[P_BM] * math.sin(x0[S["rho_2"]]) == pytest.approx(
        p_wt0, abs=1e-12)
    assert p_arr[P_BG] * math.sin(x0[S["rho_1"]]) == pytest.approx(
        p_wt0, abs=1e-12)


def test_derivative_load_step_hits_sg_swing(plant, surface):
    _, (x0, p_arr, p_wt0) = equilibrium(plant, surface)
    d = _kernel.derivative(x0, 0.0, p_arr, int(Mode.GFM_FR), 2.1)
    j_g = plant.sg.j_g(plant.network.s_base)
    assert d[S["omega_g"]] == pytest.approx(-0.1 / j_g, abs=1e-12)


def test_derivative_dc_power_balance_identity(plant, surface):
    # C_dc v dv/dt must equal P_pmsg - P_gsc at any state
    rng = np.random.default_rng(11)
    _, (x0, p_arr, p_wt0) = equilibrium(plant, surface)
    for _ in range(20):
        x = x0 + rng.uniform(-0.02, 0.02, size=N_STATES)
        d = _kernel.derivative(x, 0.0, p_arr, int(Mode.GFM_FR), 2.0)
        p_pm = p_arr[P_BM] * math.sin(x[S["rho_2"]])
        p_gs = p_arr[P_BG] * math.sin(x[S["rho_1"]])
        v = S["v_dc"]
        assert p_arr[P_CDC] * x[v] * d[v] == pytest.approx(p_pm - p_gs,
                                                           abs=1e-12)


def test_no_disturbance_run_stays_at_equilibrium(plant, surface):
    _, (x0, p_arr, p_wt0) = equilibrium(plant, surface,
                                     load=LoadProfile(base=2.0, events=()))
    states = simulate(x0, p_arr, Mode.GFM_FR,
                      LoadProfile(base=2.0, events=()), 10.0, 5e-4, 1e-3)
    drift = np.max(np.abs(states[-1, 1:1 + N_STATES] - x0))
    assert drift < 1e-9


def test_step_rk4_matches_kernel_simulate(plant, surface):
    design, (x0, p_arr, p_wt0) = equilibrium(plant, surface)
    load = LoadProfile(base=2.0, events=((0.01, 0.4),))
    dt = 5e-4
    x = x0.copy()
    for i in range(40):
        x = rk4_step(lambda z, tt: _kernel.derivative(
            z, tt, p_arr, int(Mode.GFM_FR), load.base, load.ev_times,
            load.ev_steps), x, i * dt, dt)
    states = simulate(x0, p_arr, Mode.GFM_FR, load, 40 * dt, dt, sample_dt=dt)
    np.testing.assert_allclose(states[-1, 1:1 + N_STATES], x, rtol=0,
                               atol=1e-13)


def test_event_off_grid_rejected():
    # the scenario rejects it, so every command, simulating or not, does
    load = LoadProfile(base=2.0, events=((30.00031, 0.4),))
    with pytest.raises(ValueError, match="events must lie on the grid of dt"):
        Scenario(load=load, dt=5e-4)
    Scenario(load=LoadProfile(base=2.0, events=((30.0005, 0.4),)), dt=5e-4)


def test_divergence_detected(plant, surface):
    _, (x0, p_arr, p_wt0) = equilibrium(plant, surface)
    # an unstable governor (negative time constant) blows up exponentially
    # once the load step perturbs the equilibrium
    from windgfm._kernel.layout import P_TG
    bad = p_arr.copy()
    bad[P_TG] = -0.01
    load = LoadProfile(base=2.0, events=((0.5, 0.4),))
    with pytest.raises(PlantError):
        simulate(x0, bad, Mode.GFM_FR, load, 20.0, 5e-4, 1e-3)


def test_gfl_mode_freezes_wt_states(plant, surface):
    _, (x0, p_arr, p_wt0) = equilibrium(plant, surface, eta=1.0,
                                     mode=Mode.GFL_MPPT)
    states = simulate(x0, p_arr, Mode.GFL_MPPT, LoadProfile(), 40.0, 5e-4,
                      1e-3)
    # WT-side states identical over the whole run; SG responds to the step
    for name in STATES:
        if name not in ("omega_g", "P_g"):
            col = COL[name]
            assert np.all(states[:, col] == states[0, col]), name
    assert states[-1, COL["omega_g"]] < 1.0  # settles below nominal


def test_wind_power_pu_consistency(plant, surface):
    # system pu on the aggregate base: n_agg * 0.5 rho pi R^2 * Cp * v^3
    tb = plant.turbine
    p = wind_power_pu(tb, surface, 8.0, 1.1, 0.0)
    lam = tb.R * 1.1 * tb.omega_nom / 8.0
    expect = tb.n_agg * tb.swept_k * cp(surface, lam, 0.0) * 8.0 ** 3
    assert p * plant.network.s_base == pytest.approx(expect, rel=1e-12)


def test_equilibrium_p_wt_is_the_kernels(plant, surface):
    # p_wt0 and the kernel's P_wt at x0 take the same operations: equal bits
    # over 5-25 m/s, every curtailment and both GFM modes (410 points)
    no_events = LoadProfile(base=2.0, events=())
    differ = []
    for v_w in (5.0 + 0.5 * k for k in range(41)):
        for eta in (0.7, 0.8, 0.9, 0.95, 1.0):
            for mode in (Mode.GFM_FR, Mode.GFM_MPPT):
                sc = Scenario(mode=mode, v_w=v_w, eta=eta, load=no_events)
                gains = gains_for_scenario(plant, surface, sc).gains
                x0, p_arr, p_wt0 = find_equilibrium(plant, gains, surface,
                                                    v_w, no_events, mode)
                row = simulate(x0, p_arr, mode, no_events, 0.0, sc.dt,
                               sc.sample_dt)[0]
                if row[ROW.index("P_wt")] != p_wt0:
                    differ.append((v_w, eta, mode.name))
    assert differ == []


def test_speed_limit_is_the_turbine_omega_max(cfg, surface):
    # the kernel's speed limiter and the design chain use one omega_max: a
    # -0.4 pu step at 10 m/s overspeeds the rotor into the limiter, which
    # pulls it back to 1.1 (it settled at 1.1135 when the limiter sat at 1.2)
    cfg = apply_overrides(cfg, ["turbine.omega_max=1.1", "scenario.v_w=10",
                                "scenario.events=[[30.0,-0.4]]"])
    plant = make_plant(cfg)
    _, (_, p_arr, _) = equilibrium(plant, surface, v_w=10.0)
    assert p_arr[P_OMMAX] == plant.turbine.omega_max == 1.1
    res = run_from_config(cfg, check=False)
    assert res.states[-1, COL["omega_r"]] < 1.108
