import math
from dataclasses import replace

import numpy as np
import pytest

from windgfm import _kernel
from windgfm._kernel.layout import P_BM, P_PCONST, P_RATE, STATES
from windgfm.aero import find_mpp
from windgfm.control import (
    RATE_LIMIT, T_SERVO, ControlGains, ConverterGains, limiter_pi,
    pd_filter_realization, pitch_rate,
)
from windgfm.harness import Scenario, gains_for_scenario
from windgfm.plant import LoadProfile, Mode, find_equilibrium, pack_params


def make_gains(ktg=0.5, kdg=0.0067, ktm=6.6, kp=22.7, beta_del=3.0,
               omega_del=1.2, t_dc=0.005):
    kdm = kdg * ktm / ktg
    return ControlGains(
        gsc=ConverterGains(k_theta=ktg, k_d=kdg),
        msc=ConverterGains(k_theta=ktm, k_d=kdm),
        t_dc=t_dc, omega_del=omega_del, k_p=kp, beta_del=beta_del)


def kernel_rates(plant, surface, gains, beta=0.0, omega_r=1.0, p_msc=0.5,
                 v_dc=1.0, x_gsc=0.0, x_msc=0.0, i_speed=0.0, i_power=0.0,
                 rate_limit=RATE_LIMIT):
    """Closed-loop derivative from the active kernel at a state with the
    given MSC power and pitch servo rate limit, as state name -> rate."""
    p = pack_params(plant, gains, surface, 8.0, 1.5, 0.0)
    p[P_RATE] = rate_limit
    state = dict(rho_1=0.0, omega_g=1.0, P_g=1.5, v_dc=v_dc,
                 rho_2=math.asin(p_msc / p[P_BM]), omega_r=omega_r,
                 x_gsc=x_gsc, x_msc=x_msc, beta=beta, i_speed=i_speed,
                 i_power=i_power)
    d = _kernel.derivative([state[n] for n in STATES], 0.0, p, Mode.GFM_FR,
                           2.0)
    return dict(zip(STATES, d))


def pitch_rates(plant, surface, gains, **state):
    """(d beta/dt, d i_speed/dt, d i_power/dt) from the active kernel."""
    d = kernel_rates(plant, surface, gains, **state)
    return d["beta"], d["i_speed"], d["i_power"]


def test_pd_filter_step_example():
    # H(s) = (0.5 + 0.0067 s)/(0.05 s + 1); unit step from rest:
    # instantaneous output k_d/t_dc = 0.134, settles at k_theta = 0.5
    y0, dx0 = pd_filter_realization(0.5, 0.0067, 0.05, 0.0, 1.0)
    assert y0 == pytest.approx(0.134, abs=1e-12)
    assert dx0 == pytest.approx(20.0, abs=1e-12)
    y_inf, dx_inf = pd_filter_realization(0.5, 0.0067, 0.05, 1.0, 1.0)
    assert y_inf == pytest.approx(0.5, abs=1e-12)
    assert dx_inf == 0.0


def test_pd_filter_reduces_to_lag_without_derivative():
    y, _ = pd_filter_realization(0.5, 0.0, 0.05, 0.3, 1.0)
    assert y == pytest.approx(0.15, abs=1e-15)


def test_converter_gains_validation():
    with pytest.raises(ValueError):
        ConverterGains(k_theta=0.0, k_d=0.0)
    with pytest.raises(ValueError):
        ConverterGains(k_theta=0.5, k_d=-0.1)


def test_dual_port_frequencies_at_steady_state(plant, surface):
    g = make_gains()
    dv = 0.01
    # filters settled at u = dv: both converters sit at setpoint + k_theta * dv
    d = kernel_rates(plant, surface, g, omega_r=g.omega_del, v_dc=1.0 + dv,
                     x_gsc=dv, x_msc=dv)
    # rho_1' = om_gsc - om_g with om_g = 1; rho_2' = om_r - om_msc with
    # om_r = om_del
    assert d["rho_1"] == pytest.approx(g.gsc.k_theta * dv, abs=1e-12)
    assert -d["rho_2"] == pytest.approx(g.msc.k_theta * dv, abs=1e-12)
    assert d["x_gsc"] == pytest.approx(0.0, abs=1e-12)
    assert d["x_msc"] == pytest.approx(0.0, abs=1e-12)


def test_theorem1_ratio_flag_and_fix():
    g = make_gains()
    assert g.theorem1_ratio_ok
    bad = ControlGains(gsc=g.gsc,
                       msc=ConverterGains(k_theta=6.6, k_d=0.0),
                       t_dc=g.t_dc, omega_del=1.2, k_p=g.k_p,
                       beta_del=g.beta_del)
    assert not bad.theorem1_ratio_ok
    kdm = g.gsc.k_d * bad.msc.k_theta / g.gsc.k_theta
    assert replace(bad, msc=replace(bad.msc, k_d=kdm)).theorem1_ratio_ok


def test_limiter_pi_one_sided_with_freeze():
    # positive error: active
    u, di = limiter_pi(50.0, 20.0, 0.01, 0.0)
    assert u == pytest.approx(0.5)
    assert di == pytest.approx(0.2)
    # negative error, zero integrator: clamped, frozen
    u, di = limiter_pi(50.0, 20.0, -0.01, 0.0)
    assert u == 0.0 and di == 0.0
    # negative error, positive integrator: clamped output but unwinding
    u, di = limiter_pi(50.0, 20.0, -0.1, 1.0)
    assert u == 0.0
    assert di == pytest.approx(-2.0)


def test_limiter_output_never_negative():
    rng = np.random.default_rng(3)
    for _ in range(200):
        err = rng.uniform(-1.0, 1.0)
        integ = rng.uniform(-1.0, 1.0)
        u, _ = limiter_pi(50.0, 20.0, err, integ)
        assert u >= 0.0


def test_pitch_reference_proportional_law(plant, surface):
    g = make_gains(kp=22.7, beta_del=3.0, omega_del=1.2)
    # below both limits: pure proportional action, delta_beta = k_p * -0.01
    d_beta, di_sp, di_pw = pitch_rates(plant, surface, g, beta=3.0,
                                       omega_r=1.19, p_msc=0.8)
    assert d_beta == pytest.approx(22.7 * -0.01 / T_SERVO, abs=1e-12)
    assert di_sp == 0.0 and di_pw == 0.0


def test_pitch_reference_clamped_to_range(plant, surface):
    # a fast servo, so the clamped reference shows in d beta/dt unlimited
    g = make_gains(kp=500.0, beta_del=3.0, omega_del=1.2)
    d_beta, _, _ = pitch_rates(plant, surface, g, beta=0.1, omega_r=1.0,
                               rate_limit=1e4)
    assert d_beta == pytest.approx((0.0 - 0.1) / T_SERVO, abs=1e-12)
    d_beta, _, _ = pitch_rates(plant, surface, g, beta=0.1, omega_r=1.3,
                               rate_limit=1e4)
    assert d_beta == pytest.approx((30.0 - 0.1) / T_SERVO, abs=1e-12)


def test_pitch_reference_limiters_add(plant, surface):
    g = make_gains(kp=0.0, beta_del=0.0, omega_del=1.2)
    # overspeed by 0.01 above omega_max = 1.2 and overpower by 0.01 above
    # p_max_msc = 1.05: each adds kp_lim * 0.01 = 0.5 deg
    d_beta, di_sp, di_pw = pitch_rates(plant, surface, g, omega_r=1.21,
                                       p_msc=1.06)
    assert d_beta * T_SERVO == pytest.approx(1.0, abs=1e-9)
    assert di_sp == pytest.approx(20.0 * 0.01, abs=1e-12)
    assert di_pw == pytest.approx(20.0 * 0.01, abs=1e-9)
    # anti-windup: a charged integrator keeps the output on and unwinds;
    # an empty one with negative error stays frozen
    d_beta, di_sp, di_pw = pitch_rates(plant, surface, g, omega_r=1.19,
                                       p_msc=0.5, i_speed=1.0)
    assert d_beta * T_SERVO == pytest.approx(50.0 * -0.01 + 1.0, abs=1e-9)
    assert di_sp == pytest.approx(20.0 * -0.01, abs=1e-12)
    assert di_pw == 0.0


def test_pitch_servo_rate_and_range_limits(plant, surface):
    def servo(beta, beta_ref):
        g = make_gains(kp=0.0, beta_del=beta_ref, omega_del=1.1)
        return kernel_rates(plant, surface, g, beta=beta, omega_r=1.1)["beta"]

    assert (RATE_LIMIT, T_SERVO) == (8.0, 0.3)
    assert servo(0.0, 30.0) == 8.0
    assert servo(30.0, 0.0) == -8.0
    assert servo(0.0, -5.0) == 0.0      # held at lower bound
    assert servo(30.0, 40.0) == 0.0     # held at upper bound
    assert servo(2.0, 2.3) == pytest.approx(1.0, abs=1e-12)
    # below the range the servo only drives back in
    assert pitch_rate(-1.0, -5.0, 0.3, 8.0, 0.0, 30.0) > 0.0
    assert pitch_rate(31.0, 40.0, 0.3, 8.0, 0.0, 30.0) < 0.0


def gfl_injection(plant, surface, v_w):
    """(p_const, p_wt0) of a GFL_MPPT run: the constant power the kernel
    injects and the turbine's power at its operating point."""
    sc = Scenario(mode=Mode.GFL_MPPT, v_w=v_w, eta=1.0)
    gains = gains_for_scenario(plant, surface, sc).gains
    _, p_arr, p_wt0 = find_equilibrium(plant, gains, surface, v_w,
                                       LoadProfile(), Mode.GFL_MPPT)
    return p_arr[P_PCONST], p_wt0


def test_gfl_emulation_below_rated(plant, surface):
    tb = plant.turbine
    p_const, p_wt0 = gfl_injection(plant, surface, 8.0)
    lam_mpp, cp_max = find_mpp(surface)
    expect = tb.swept_k * cp_max * 8.0 ** 3 / tb.P_rated
    assert p_const == p_wt0
    assert p_const == pytest.approx(expect, rel=1e-9)
    assert p_const < 1.0


def test_gfl_emulation_clamps_at_rated(plant, surface):
    # Above rated the MPPT design pitches to rated power by bisection on Cp,
    # to |Cp - target| < 1e-12, so the injection is 1 pu to within that
    # residual scaled to power, not exactly 1.
    tb = plant.turbine
    for v_w in (14.0, 20.0):
        p_const, p_wt0 = gfl_injection(plant, surface, v_w)
        assert p_const == min(p_wt0, 1.0)
        tol = 1e-12 * tb.swept_k * v_w ** 3 / tb.P_rated
        assert abs(p_const - 1.0) < tol, v_w


def test_gfl_emulation_monotone_below_rated(plant, surface):
    powers = [gfl_injection(plant, surface, v)[0]
              for v in (6.0, 7.0, 8.0, 9.0, 10.0)]
    assert all(b > a for a, b in zip(powers, powers[1:]))
