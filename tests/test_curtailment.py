import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windgfm.aero import CpSurface, TurbineParams, cp, find_mpp
from windgfm.curtailment import (
    CurtailmentError, build_table, deload_point, solve_pitch_deload,
    solve_speed_deload_target, table_to_csv,
)


def p_wt_del(turbine, pt) -> float:
    """The WT power (pu of P_rated) at a deload point."""
    return turbine.power_scale(pt.v_w) * cp(CpSurface(), pt.lam_del,
                                            pt.beta_del)


def test_full_power_returns_mpp(surface):
    lam_mpp, cp_max = find_mpp(surface)
    assert solve_speed_deload_target(surface, cp_max, lam_mpp,
                                     cp_max) == lam_mpp
    # a target above the peak also stays at the MPP
    assert solve_speed_deload_target(surface, 1.2 * cp_max, lam_mpp,
                                     cp_max) == lam_mpp


def test_speed_deload_residual(surface):
    lam_mpp, cp_max = find_mpp(surface)
    for eta in (0.7, 0.8, 0.9, 0.95):
        lam = solve_speed_deload_target(surface, eta * cp_max, lam_mpp, cp_max)
        assert lam > lam_mpp
        assert cp(surface, lam, 0.0) == pytest.approx(eta * cp_max, abs=1e-9)


def test_speed_deload_rejects_bad_eta(surface):
    # Cp(25, 0) = 0.122: deeper curtailment is out of reach of overspeed
    lam_mpp, cp_max = find_mpp(surface)
    for eta in (0.0, 0.2):
        with pytest.raises(CurtailmentError):
            solve_speed_deload_target(surface, eta * cp_max, lam_mpp, cp_max)


def test_pitch_deload_residual(surface):
    lam_mpp, cp_max = find_mpp(surface)
    lam_cap = 7.0
    target = cp(surface, lam_cap, 0.0)
    beta = solve_pitch_deload(surface, lam_cap, 0.9, target)
    assert 0.0 < beta < 30.0
    assert cp(surface, lam_cap, beta) == pytest.approx(0.9 * target, abs=1e-9)


def test_pitch_deload_zero_when_already_below(surface):
    # Cp at the capped tip-speed ratio already at/below the goal -> no pitch
    already = cp(surface, 20.0, 0.0)
    assert solve_pitch_deload(surface, 20.0, 1.0, already + 0.01) == 0.0


def test_deload_point_overspeed_branch(turbine, surface):
    pt = deload_point(turbine, surface, 8.0, 0.9)
    assert pt.beta_del == 0.0
    assert pt.omega_del == pytest.approx(1.16, rel=0.05)
    assert pt.omega_del <= turbine.omega_max + 1e-12


def test_deload_point_pitch_branch_10ms(turbine, surface):
    pt = deload_point(turbine, surface, 10.0, 0.9)
    assert pt.omega_del == pytest.approx(turbine.omega_max, abs=1e-12)
    assert pt.beta_del == pytest.approx(3.0, abs=1.5)


def test_deload_point_pitch_branch_12ms(turbine, surface):
    pt = deload_point(turbine, surface, 12.0, 0.9)
    assert pt.omega_del == pytest.approx(turbine.omega_max, abs=1e-12)
    assert pt.beta_del == pytest.approx(5.4, abs=1.5)


def test_deload_point_power_matches_target(turbine, surface):
    _, cp_max = find_mpp(surface)
    for v_w in (6.0, 8.0, 10.0, 12.0):
        for eta in (0.8, 0.9):
            pt = deload_point(turbine, surface, v_w, eta)
            k3 = turbine.swept_k * v_w ** 3
            p_target = eta * min(cp_max * k3, turbine.P_rated) / turbine.P_rated
            assert p_wt_del(turbine, pt) == pytest.approx(p_target, rel=5e-3)


def test_default_table_power_matches_target(turbine, surface):
    # every row of the default table, including the near-MPP ones at 7.5
    # and 8.5 m/s where Cp_max k3 / k3 rounds above Cp_max
    _, cp_max = find_mpp(surface)
    table = build_table(turbine, surface)
    assert len(table) == 147
    for pt in table:
        k3 = turbine.swept_k * pt.v_w ** 3
        p_target = pt.eta * min(cp_max * k3, turbine.P_rated) / turbine.P_rated
        assert p_wt_del(turbine, pt) == pytest.approx(p_target, abs=1e-7), \
            f"({pt.v_w}, {pt.eta})"


def test_default_table_is_the_literal_grid(turbine, surface):
    # eta is the literal 0.85, 0.9, ..., not an accumulated step's
    # 0.85000000000000009, so the eta = 0.9 rows are the points gain-design
    # designs at eta = 0.9
    table = build_table(turbine, surface)
    assert [pt.v_w for pt in table[::7]] == [4.0 + 0.5 * k for k in range(21)]
    assert [pt.eta for pt in table] == [0.7, 0.75, 0.8, 0.85, 0.9, 0.95,
                                        1.0] * 21
    for pt in table[4::7]:
        assert pt == deload_point(turbine, surface, pt.v_w, 0.9)


@given(v_w=st.floats(5.0, 13.0), e1=st.floats(0.72, 0.88))
@settings(max_examples=40, deadline=None)
def test_deload_monotone_in_eta(v_w, e1):
    turbine = TurbineParams()
    surface = CpSurface()
    e2 = e1 + 0.1
    p1 = deload_point(turbine, surface, v_w, e1)
    p2 = deload_point(turbine, surface, v_w, e2)
    # deeper curtailment -> at least as much overspeed and at least as much pitch
    assert p1.omega_del >= p2.omega_del - 1e-9
    assert p1.beta_del >= p2.beta_del - 1e-9
    assert p_wt_del(turbine, p1) <= p_wt_del(turbine, p2) + 1e-9


def test_rotor_speed_never_exceeds_limit(turbine, surface):
    for v_w in np.arange(4.0, 14.01, 1.0):
        for eta in (0.7, 0.85, 1.0):
            pt = deload_point(turbine, surface, v_w, eta)
            assert pt.omega_del <= turbine.omega_max + 1e-12
            assert 0.0 <= pt.beta_del <= 30.0


def test_build_table_shape_and_lookup_identity(turbine, surface):
    v_g = np.array([6.0, 8.0, 10.0])
    e_g = np.array([0.8, 0.9, 1.0])
    table = build_table(turbine, surface, v_g, e_g)
    assert len(table) == 9
    # row-major (v, eta): the point at node (8.0, 0.9) is index 1 * 3 + 1
    pt = table[1 * e_g.size + 1]
    assert (pt.v_w, pt.eta) == (8.0, 0.9)
    assert pt == deload_point(turbine, surface, 8.0, 0.9)


def test_table_csv_format(turbine, surface):
    table = build_table(turbine, surface, [8.0], [0.9])
    text = table_to_csv(table)
    lines = text.strip().split("\n")
    assert lines[0] == "v_w,eta,lambda_del,omega_del_pu,beta_del_deg"
    vals = [float(v) for v in lines[1].split(",")]
    assert vals[0] == 8.0 and vals[1] == 0.9
    pt = deload_point(turbine, surface, 8.0, 0.9)
    assert vals[3] == pt.omega_del  # %.17g round-trips exactly


def test_speed_deload_unreachable_message(surface):
    lam_mpp, cp_max = find_mpp(surface)
    with pytest.raises(CurtailmentError,
                       match="^curtailment unreachable by overspeed alone$"):
        solve_speed_deload_target(surface, 0.2 * cp_max, lam_mpp, cp_max)


def test_pitch_deload_unreachable_message(turbine, surface):
    # Cp(., 30 deg) is about 1e-77, above a goal of eta = 1e-80 of Cp
    with pytest.raises(CurtailmentError,
                       match="^target below reach even at beta = 30 deg$"):
        solve_pitch_deload(surface, 7.0, 1e-80, cp(surface, 7.0, 0.0))
    # deload_point falls back to pitch when overspeed cannot reach the
    # target, and reports the pitch branch's failure
    with pytest.raises(CurtailmentError, match="beta = 30 deg"):
        deload_point(turbine, surface, 25.0, 1e-80)


def counted_cp(monkeypatch):
    """The (lam, beta) of every aero.cp evaluation, at both of its bindings:
    the curtailment solves' and find_mpp's."""
    import windgfm.aero as aero
    import windgfm.curtailment as curtailment
    calls = []

    def counting(surface, lam, beta):
        calls.append((lam, beta))
        return cp(surface, lam, beta)
    for module in (aero, curtailment):
        monkeypatch.setattr(module, "cp", counting)
    return calls


def test_solves_return_their_lower_endpoint_after_one_evaluation(
        monkeypatch, surface):
    # the overspeed solve's one evaluation at its lower end is find_mpp's:
    # it takes Cp(lam_mpp, 0) = cp_max from its caller
    lam_mpp, cp_max = find_mpp(surface)
    calls = counted_cp(monkeypatch)
    assert solve_speed_deload_target(surface, cp_max, lam_mpp,
                                     cp_max) == lam_mpp
    assert calls == []
    goal = cp(surface, 20.0, 0.0)
    assert solve_pitch_deload(surface, 20.0, 1.0, goal) == 0.0
    assert calls == [(20.0, 0.0)]


@pytest.mark.parametrize("v_w", [8.0, 14.0])
def test_deload_point_evaluates_each_bracket_end_once(
        monkeypatch, turbine, surface, v_w):
    # 8 m/s bisects the overspeed branch; 14 m/s bisects it, finds the
    # speed above omega_max, and bisects the pitch branch too
    # Cp(lam_mpp, 0) is find_mpp's evaluation, which the overspeed solve
    # reuses: deload_point made it twice
    lam_mpp, _ = find_mpp(surface)
    lam_cap = turbine.lam_per_pu(v_w) * turbine.omega_max
    calls = counted_cp(monkeypatch)
    pt = deload_point(turbine, surface, v_w, 0.9)
    ends = [(lam_mpp, 0.0), (25.0, 0.0)]
    if pt.beta_del > 0.0:
        ends += [(lam_cap, 0.0), (lam_cap, 30.0)]
    assert calls[:2] == ends[:2]
    assert all(calls.count(end) == 1 for end in ends)
    assert len(set(calls)) == len(calls)
