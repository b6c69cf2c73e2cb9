import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from windgfm import _kernel
from windgfm import smallsignal as ss
from windgfm.aero import cp
from windgfm.harness import (
    ROCOF_WINDOW, Scenario, compute_metrics, gains_for_scenario, run_scenario,
)
from windgfm.plant import LoadProfile, Mode, find_equilibrium

# The load step's injection into the model's rows: a load increase dP_L
# drains the omega_g row, T x' = A x + E dP_L
E = np.array([0.0, 0.0, -1.0, 0.0, 0.0, 0.0])


def certificate_S(model, M):
    """S = sym(M At + At' M), At = T^-1 A in the certificate's coordinates
    (B rho, omega, v_dc, p_g)."""
    S_tr = np.diag([model.b_g, model.b_msc, 1.0, 1.0, 1.0, 1.0])
    At = S_tr @ ss.system_matrix(model) @ np.linalg.inv(S_tr)
    S = M @ At + At.T @ M
    return 0.5 * (S + S.T)


def certificate_M(model):
    """The certificate's storage matrix M = 1/2 diag((K_theta B)^-1,
    K_theta^-1 J, C_dc, T_g/(k_theta_gsc k_g))."""
    return 0.5 * np.diag([
        1.0 / (model.k_theta_gsc * model.b_g),
        1.0 / (model.k_theta_msc * model.b_msc),
        model.j_g / model.k_theta_gsc,
        model.j_wt / model.k_theta_msc,
        model.c_dc,
        model.t_g / (model.k_theta_gsc * model.k_g)])


def paper_V(model):
    """The paper's dissipation matrix V, with S = -sym(V) under Theorem 1:
    the derivative-gain block on (B rho_1, B rho_2), the rotor stiffness
    and the governor damping."""
    V = np.zeros((6, 6))
    V[:2, :2] = model.k_d_gsc / (model.k_theta_gsc * model.c_dc)
    V[3, 3] = model.k_wt / model.k_theta_msc
    V[5, 5] = 1.0 / (model.k_theta_gsc * model.k_g)
    return V


def linear_response(model, d_p_l, horizon, dt):
    """Integrate T x' = A x + E dP_L from rest; returns (t, X)."""
    Asys = ss.system_matrix(model)
    b = np.linalg.solve(model.T, E) * d_p_l
    n = int(round(horizon / dt))
    Phi = expm(Asys * dt)
    # exact step response of the affine system over one sample
    x_inf = np.linalg.solve(Asys, -b)
    t = np.arange(n + 1) * dt
    X = np.empty((n + 1, 6))
    x = np.zeros(6)
    for i in range(n + 1):
        X[i] = x
        x = x_inf + Phi @ (x - x_inf)
    return t, X


def steady_state(model, d_p_l):
    """Equilibrium of the disturbed linear system: solves A x = -E dP_L."""
    return np.linalg.solve(model.A, -E * d_p_l)


def lasalle_function(model, x6):
    """V(x) = x' M x in certificate coordinates, for a model-coordinate state."""
    S_tr = np.diag([model.b_g, model.b_msc, 1.0, 1.0, 1.0, 1.0])
    z = S_tr @ np.asarray(x6, dtype=float)
    return float(z @ certificate_M(model) @ z)


def reduced_rhs(model, params, surface, v_w, omega_del, beta_del, k_p):
    """Nonlinear reduced closed loop whose linearization at 0 is T^-1 A.

    Deviation coordinates; the sine nonlinearity is retained on both links
    and WT power enters through the full Cp surface with the proportional
    pitch law beta = beta_del + k_p * omega_r_dev (no DC-filter lag, no
    servo).
    """
    bg, bm = model.b_g, model.b_msc
    ktg, ktm = model.k_theta_gsc, model.k_theta_msc
    kdg, kdm = model.k_d_gsc, model.k_d_msc
    jg, jwt, cdc, tg, kg = model.j_g, model.j_wt, model.c_dc, model.t_g, model.k_g
    scale = params.swept_k * v_w ** 3 / params.P_rated

    def p_wt_dev(om_dev):
        om = (omega_del + om_dev) * params.omega_nom
        beta = max(beta_del + k_p * om_dev, 0.0)
        lam = params.R * om / v_w
        base = params.R * omega_del * params.omega_nom / v_w
        return scale * (cp(surface, lam, beta) - cp(surface, base, beta_del))

    def f(x):
        r1, r2, og, orr, v, pg = x
        p_gsc = bg * math.sin(r1)
        p_pm = -bm * math.sin(r2)
        dv = (p_pm - p_gsc) / cdc
        return np.array([
            ktg * v + kdg / cdc * (p_pm - p_gsc) - og,
            ktm * v + kdm / cdc * (p_pm - p_gsc) - orr,
            (p_gsc + pg) / jg,
            (p_wt_dev(orr) + bm * math.sin(r2)) / jwt,
            dv,
            (-kg * og - pg) / tg])

    return f


def numerical_jacobian(f, x0, h=1e-7):
    """Richardson-extrapolated central differences (order h^4)."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    m = f(x0).size
    J = np.empty((m, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        d1 = (f(x0 + h * e) - f(x0 - h * e)) / (2 * h)
        d2 = (f(x0 + 2 * h * e) - f(x0 - 2 * h * e)) / (4 * h)
        J[:, j] = (4.0 * d1 - d2) / 3.0
    return J


def default_model(plant, surface, v_w=8.0, eta=0.9):
    sc = Scenario(v_w=v_w, eta=eta)
    d = gains_for_scenario(plant, surface, sc)
    return ss.model_from_params(plant, d.gains, d.k_wr, d.k_b), d


def test_build_model_structure():
    m = ss.SmallSignalModel(j_g=33.6, j_wt=13.26 * 1.2, c_dc=0.4, t_g=0.5,
                            k_g=84.0, b_g=100.0, b_msc=5.0, k_theta_gsc=0.5,
                            k_d_gsc=0.0067, k_theta_msc=6.6, k_d_msc=0.08844,
                            k_wt=0.5)
    np.testing.assert_allclose(np.diag(m.T),
                               [1.0, 1.0, 33.6, 13.26 * 1.2, 0.4, 0.5])
    # hand assembly of A
    k1 = 0.0067 / 0.4
    k2 = 0.08844 / 0.4
    A = np.array([
        [-k1 * 100, -k1 * 5, -1, 0, 0.5, 0],
        [-k2 * 100, -k2 * 5, 0, -1, 6.6, 0],
        [100, 0, 0, 0, 0, 1],
        [0, 5, 0, -0.5, 0, 0],
        [-100, -5, 0, 0, 0, 0],
        [0, 0, -84, 0, 0, -1]])
    np.testing.assert_allclose(m.A, A, atol=1e-14)


def test_build_model_validation():
    with pytest.raises(ss.SmallSignalError):
        ss.SmallSignalModel(j_g=0.0, j_wt=1, c_dc=1, t_g=1, k_g=1, b_g=1,
                            b_msc=1, k_theta_gsc=1, k_d_gsc=0, k_theta_msc=1,
                            k_d_msc=0, k_wt=0)
    with pytest.raises(ss.SmallSignalError):
        ss.SmallSignalModel(j_g=1, j_wt=1, c_dc=1, t_g=1, k_g=1, b_g=1,
                            b_msc=1, k_theta_gsc=1, k_d_gsc=-0.1,
                            k_theta_msc=1, k_d_msc=0, k_wt=0)


UNIT_MODEL = dict(j_g=1.0, j_wt=1.0, c_dc=1.0, t_g=1.0, k_g=1.0, b_g=1.0,
                  b_msc=1.0, k_theta_gsc=1.0, k_d_gsc=0.0, k_theta_msc=1.0,
                  k_d_msc=0.0, k_wt=0.0)


@pytest.mark.parametrize("name", sorted(UNIT_MODEL))
def test_model_constructor_rejects_zero_and_nan(name):
    # the record itself validates: no model exists with a bad parameter
    ss.SmallSignalModel(**UNIT_MODEL)
    with pytest.raises(ss.SmallSignalError, match="not finite"):
        ss.SmallSignalModel(**{**UNIT_MODEL, name: math.nan})
    if name not in ("k_d_gsc", "k_d_msc", "k_wt"):
        with pytest.raises(ss.SmallSignalError, match=f"{name} must be"):
            ss.SmallSignalModel(**{**UNIT_MODEL, name: 0.0})


def test_default_point_is_stable(plant, surface):
    model, _ = default_model(plant, surface)
    lam, stable = ss.stability_verdict(model)
    assert stable
    assert lam.real.max() < -0.01


def test_theorem1_conditions():
    # k_wt = k_wr + k_b k_p = 0.1 + 0.05 * 20
    assert ss.theorem1_conditions(0.5, 0.0067, 6.6, 0.0067 * 6.6 / 0.5, 1.1)
    assert not ss.theorem1_conditions(0.5, 0.0067, 6.6, 0.0, 1.1)
    assert not ss.theorem1_conditions(0.5, 0.0, 6.6, 0.0, -1.0)


def test_lasalle_certificate_default_point(plant, surface):
    model, _ = default_model(plant, surface)
    rep = ss.lasalle_verify(model)
    assert rep.m_positive_definite
    assert rep.max_eig_S <= 1e-9
    S = certificate_S(model, certificate_M(model))
    assert np.linalg.eigvalsh(S).max() == rep.max_eig_S
    V = paper_V(model)
    assert np.abs(S + 0.5 * (V + V.T)).max() < 1e-9
    assert rep.certified


def test_lasalle_rejects_mismatched_gains(plant, surface):
    model, d = default_model(plant, surface)
    bad = replace(model, k_d_msc=0.0)
    with pytest.raises(ss.SmallSignalError):
        ss.lasalle_verify(bad)


def test_lasalle_function_decreases_along_response(plant, surface):
    model, _ = default_model(plant, surface)
    # V is non-increasing along the unforced linear flow
    x = np.array([0.001, 0.002, 0.001, -0.001, 0.003, -0.002])
    Asys = ss.system_matrix(model)
    Phi = expm(Asys * 0.01)
    v_prev = lasalle_function(model, x)
    for _ in range(200):
        x = Phi @ x
        v = lasalle_function(model, x)
        assert v <= v_prev + 1e-15
        v_prev = v


def test_steady_state_satisfies_dual_port_relations(plant, surface):
    model, _ = default_model(plant, surface)
    xs = steady_state(model, 0.01)
    assert abs(xs[2] - model.k_theta_gsc * xs[4]) < 1e-12
    assert abs(xs[3] - model.k_theta_msc * xs[4]) < 1e-12
    # residual of the linear equation itself
    np.testing.assert_allclose(model.A @ xs, -E * 0.01, atol=1e-14)


# (v_w, eta, mode, dP_L, tolerance on the nadir's frequency deviation):
# the measured gaps are 0.15-0.23% at +0.4 pu, 0.14% at -0.4 pu and at
# most 0.04% at +-0.05 and 0.002 pu.  compute_metrics' nadir after a load
# decrease is the frequency peak, compared on |nadir_hz - f0|.
RESPONSE_POINTS = [
    (8.0, 0.9, Mode.GFM_FR, 0.002, 1.5e-3),
    (8.0, 0.9, Mode.GFM_FR, 0.05, 1.5e-3),
    (8.0, 0.9, Mode.GFM_FR, -0.05, 1.5e-3),
    (8.0, 0.9, Mode.GFM_FR, 0.4, 3e-3),
    (8.0, 0.9, Mode.GFM_FR, -0.4, 3e-3),
    (6.0, 0.8, Mode.GFM_FR, 0.4, 3e-3),
    (10.0, 0.9, Mode.GFM_FR, 0.4, 3e-3),
    (8.0, 1.0, Mode.GFM_MPPT, 0.4, 3e-3),
]


@pytest.mark.parametrize(
    "v_w, eta, mode, d_p_l, rel_nadir", RESPONSE_POINTS,
    ids=[f"{v:g}-{e:g}-{m.name}-{d:+g}" for v, e, m, d, _ in RESPONSE_POINTS])
def test_linear_response_matches_nonlinear_small_step(plant, surface, v_w, eta,
                                                      mode, d_p_l, rel_nadir):
    # the paper's fast frequency response: compute_metrics' nadir, its time
    # and the RoCoF of the 11-state simulation against the 6-state reduced
    # model's zero-order-hold step response.  The nadir gap grows with the
    # step (its nonlinearity, not the reduction); RoCoF is about
    # f0 dP_L / J_g, set by the SG's inertia.
    f0 = plant.network.f_hz
    sc = Scenario(v_w=v_w, eta=eta, mode=mode, duration=4.0,
                  load=LoadProfile(base=2.0, events=((1.0, d_p_l),)))
    res = run_scenario(plant, surface, sc, check=False)
    sim = compute_metrics(res.trace, 1.0, f0)
    d = res.design
    model = ss.model_from_params(plant, d.gains, d.k_wr, d.k_b)
    t, X = linear_response(model, abs(d_p_l), 3.0, sc.sample_dt)
    f = f0 * (1.0 + X[:, 2])
    w = int(round(ROCOF_WINDOW / sc.sample_dt))
    rocof = np.abs(f[w:] - f[:-w]).max() / (w * sc.sample_dt)
    assert abs(sim.nadir_hz - f0) == pytest.approx(f0 - f.min(),
                                                   rel=rel_nadir)
    assert abs((sim.t_nadir_s - 1.0) - t[np.argmin(f)]) <= 5e-3
    assert sim.rocof_hz_per_s == pytest.approx(rocof, rel=1e-3)


def full_loop_spectrum(plant, surface, v_w, eta):
    """(eigenvalues of the 11-state loop's central-difference Jacobian at
    GFM_FR's pre-event equilibrium, the design there)."""
    sc = Scenario(v_w=v_w, eta=eta)
    d = gains_for_scenario(plant, surface, sc)
    x0, p_arr, _ = find_equilibrium(plant, d.gains, surface, v_w, sc.load,
                                    Mode.GFM_FR)

    def f(x):
        return np.array(_kernel.derivative(x, 0.0, p_arr, int(Mode.GFM_FR),
                                           sc.load.base))

    h = 1e-7
    J = np.column_stack([(f(x0 + h * e) - f(x0 - h * e)) / (2 * h)
                         for e in np.eye(x0.size)])
    return np.linalg.eigvals(J), d


def lagged_system_matrix(model, t_dc):
    """T^-1 A of the reduced model with the DC-filter lag of both
    converters: x = (STATE_LABELS, x_gsc, x_msc), each converter's
    frequency k_theta x_f + k_d x_f' from the filtered DC voltage x_f,
    x_f' = (v_dc - x_f) / t_dc, as control.pd_filter_realization has it."""
    m = model
    M = np.zeros((8, 8))
    M[:6, :6] = ss.system_matrix(m)
    for row, k_theta, k_d, col in ((0, m.k_theta_gsc, m.k_d_gsc, 6),
                                   (1, m.k_theta_msc, m.k_d_msc, 7)):
        M[row, :6] = 0.0
        M[row, 2 + row] = -1.0  # minus omega_g, or minus omega_r
        M[row, 4] = k_d / t_dc
        M[row, col] = k_theta - k_d / t_dc
        M[col, 4], M[col, col] = 1.0 / t_dc, -1.0 / t_dc
    return M


@pytest.mark.parametrize("v_w, eta", [(6.0, 0.8), (7.0, 0.9), (8.0, 0.9)])
def test_reduced_slow_modes_are_modes_of_the_full_loop(plant, surface, v_w,
                                                       eta):
    # These overspeed designs sit below omega_max, so no limiter is on its
    # switching surface.  The 2.8 Hz pair is not compared: the reduced
    # model, with no DC-filter lag, overstates its damping by about 60%.
    full, d = full_loop_spectrum(plant, surface, v_w, eta)
    lam, stable = ss.stability_verdict(
        ss.model_from_params(plant, d.gains, d.k_wr, d.k_b))
    assert stable and full.real.max() < 0
    for z in sorted(lam, key=abs)[:4]:
        assert np.abs(full - z).min() <= 5e-3 * abs(z), (z, full)


@pytest.mark.parametrize("v_w, eta", [(6.0, 0.8), (7.0, 0.9), (8.0, 0.9)])
def test_dc_filter_lag_puts_the_fast_pair_on_the_full_loop(plant, surface,
                                                          v_w, eta):
    # With t_dc in the reduced model, its 2.7-3.1 Hz pair moves onto the
    # full loop's, and so does every other mode of the eight (measured at
    # most 8.7e-4 |lambda|).  Without the lag the pair's real part is 59%
    # too far left: the lag is the cause of the gap.  The full loop's other
    # modes are the pitch servo's -1/T_servo and the limiters' integrators.
    full, d = full_loop_spectrum(plant, surface, v_w, eta)
    model = ss.model_from_params(plant, d.gains, d.k_wr, d.k_b)
    lagged = np.linalg.eigvals(lagged_system_matrix(model, d.gains.t_dc))
    pair = [z for z in lagged if 2.0 < z.imag / (2 * np.pi) < 3.5]
    assert len(pair) == 1
    for z in lagged:
        assert np.abs(full - z).min() <= 2e-3 * abs(z), (z, full)
    # with t_dc -> 0 the lag vanishes and the 6-state spectrum is back
    lam = np.linalg.eigvals(ss.system_matrix(model))
    pair6 = [z for z in lam if z.imag > 0 and np.abs(z - pair[0]) < 2.0]
    assert len(pair6) == 1 and pair6[0].real < 1.5 * pair[0].real
    # (the gap shrinks as t_dc: 9.7e-7 |lambda| at 1e-7 s)
    fast = np.linalg.eigvals(lagged_system_matrix(model, 1e-7))
    for z in lam:
        assert np.abs(fast - z).min() <= 1e-5 * abs(z)


def test_linear_response_converges_to_steady_state(plant, surface):
    model, _ = default_model(plant, surface)
    t, X = linear_response(model, 0.01, 200.0, 0.01)
    np.testing.assert_allclose(X[-1], steady_state(model, 0.01), atol=1e-8)


@given(k_theta_msc=st.floats(0.5, 15.0), k_wt=st.floats(0.01, 3.0))
@settings(max_examples=60, deadline=None)
def test_random_theorem1_designs_certify(k_theta_msc, k_wt):
    k_theta_gsc = 0.5
    k_d_gsc = 0.0067
    k_d_msc = k_d_gsc * k_theta_msc / k_theta_gsc
    m = ss.SmallSignalModel(j_g=33.6, j_wt=15.0, c_dc=0.4, t_g=0.5, k_g=84.0,
                            b_g=100.0, b_msc=5.0, k_theta_gsc=k_theta_gsc,
                            k_d_gsc=k_d_gsc, k_theta_msc=k_theta_msc,
                            k_d_msc=k_d_msc, k_wt=k_wt)
    rep = ss.lasalle_verify(m)
    assert rep.certified


def test_numerical_jacobian_quadratic_oracle():
    def f(x):
        return np.array([x[0] ** 2 + 3.0 * x[1], np.sin(x[0]) * x[1]])

    J = numerical_jacobian(f, np.array([0.3, -0.7]))
    expect = np.array([[0.6, 3.0],
                       [-0.7 * np.cos(0.3), np.sin(0.3)]])
    np.testing.assert_allclose(J, expect, atol=1e-9)


def test_model_json_round_trip(plant, surface):
    import json
    model, _ = default_model(plant, surface)
    doc = json.loads(ss.model_to_json(model, *ss.stability_verdict(model)))
    assert doc["stable"] is True
    np.testing.assert_allclose(np.array(doc["A"]), model.A)
    assert doc["labels"] == list(ss.STATE_LABELS)
