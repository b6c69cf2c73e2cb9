import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windgfm import smallsignal as ss
from windgfm.aero import CpSurface, TurbineParams
from windgfm.curtailment import deload_point
from windgfm.gaindesign import (
    PRESETS, DesignSpec, ZeroStiffnessError, design_gains, droop_coefficient,
    droop_map, droop_map_to_csv, max_gsc_gain, max_msc_gain, max_pitch_gain,
    mppt_gains,
)
from windgfm.plant import wind_power_pu


def test_design_spec_validation():
    with pytest.raises(ValueError):
        DesignSpec(d_omega_max=0.0)
    with pytest.raises(ValueError):
        DesignSpec(msc_floor=-1.0)
    with pytest.raises(ValueError):
        DesignSpec(msc_floor=0.0)
    for bad in ({"k_d_gsc": -1.0}, {"k_d_gsc": math.nan},
                {"d_v_max": math.nan}, {"d_omega_max": math.nan},
                {"t_dc": math.nan}, {"d_v_max": math.inf},
                {"k_d_gsc": math.inf}, {"target_droop": 0.0},
                {"target_droop": math.nan}, {"target_droop": math.inf}):
        with pytest.raises(ValueError):
            DesignSpec(**bad)
    assert DesignSpec(k_d_gsc=0.0).k_d_gsc == 0.0


def test_presets():
    assert PRESETS == {"table3": 0.01, "fig7": 0.005}
    assert DesignSpec().d_omega_max == PRESETS["table3"]


def test_max_gsc_gain_example():
    assert max_gsc_gain(DesignSpec()) == pytest.approx(0.5, abs=1e-12)
    fig7 = DesignSpec(d_omega_max=PRESETS["fig7"])
    assert max_gsc_gain(fig7) == pytest.approx(0.25, abs=1e-12)


def test_max_msc_gain_examples():
    spec = DesignSpec()
    assert max_msc_gain(spec, 0.5, 1.16, 0.858) == pytest.approx(15.1, rel=1e-3)
    assert max_msc_gain(spec, 0.5, 1.2, 1.068) == pytest.approx(6.6, rel=1e-3)


def test_max_msc_gain_floor_when_no_headroom():
    spec = DesignSpec(msc_floor=1.0)
    assert max_msc_gain(spec, 0.5, 1.0, 1.0) == 1.0


def test_max_pitch_gain_examples():
    spec = DesignSpec()
    assert max_pitch_gain(spec, 0.5, 6.6, 3.0) == pytest.approx(22.7, rel=2e-3)
    assert max_pitch_gain(spec, 0.5, 1.0, 5.4) == pytest.approx(270.0, rel=1e-9)
    assert max_pitch_gain(spec, 0.5, 6.6, 0.0) == 0.0


def test_droop_coefficient_examples():
    assert droop_coefficient(0.5, 15.1, 0.119, 0.0, 0.0) == pytest.approx(
        0.277, abs=0.005)
    assert droop_coefficient(0.5, 6.6, 0.082, 0.02, 22.7) == pytest.approx(
        0.142, abs=0.005)
    assert droop_coefficient(0.5, 1.0, 0.0, 0.083, 270.0) == pytest.approx(
        0.023, abs=0.002)


def test_droop_coefficient_zero_stiffness():
    with pytest.raises(ZeroStiffnessError):
        droop_coefficient(0.5, 6.6, 0.0, 0.0, 0.0)


@given(ktm=st.floats(0.5, 20.0), kwt=st.floats(0.01, 5.0))
@settings(max_examples=100, deadline=None)
def test_droop_monotone_in_msc_gain_and_stiffness(ktm, kwt):
    m = droop_coefficient(0.5, ktm, kwt, 0.0, 0.0)
    assert droop_coefficient(0.5, ktm * 1.5, kwt, 0.0, 0.0) < m
    assert droop_coefficient(0.5, ktm, kwt * 1.5, 0.0, 0.0) < m


def test_design_chain_10ms(turbine, surface):
    d = design_gains(turbine, surface, 10.0, 0.9)
    assert d.status == "ok"
    assert d.gains.gsc.k_theta == pytest.approx(0.5, abs=1e-12)
    assert d.gains.msc.k_theta == pytest.approx(6.6, rel=0.01)
    assert d.gains.k_p == pytest.approx(22.7, rel=0.01)
    assert d.gains.theorem1_ratio_ok
    assert math.isfinite(d.m_p) and d.m_p > 0


def test_design_chain_8ms_overspeed_only(turbine, surface):
    d = design_gains(turbine, surface, 8.0, 0.9)
    assert d.gains.beta_del == 0.0
    assert d.gains.k_p == 0.0
    assert d.k_b >= 0.0
    assert d.k_wr > 0.0
    assert d.status == "ok"


def test_design_satisfies_excursion_budget(turbine, surface):
    # by construction: k_theta_msc * d_v_max <= omega_del - omega_mpp and
    # (k_theta_msc k_p / k_theta_gsc) * d_omega_max <= beta_del
    spec = DesignSpec()
    for v_w, eta in ((8.0, 0.9), (10.0, 0.9), (12.0, 0.8)):
        d = design_gains(turbine, surface, v_w, eta, spec)
        ktg, ktm = d.gains.gsc.k_theta, d.gains.msc.k_theta
        head = d.gains.omega_del - d.point.omega_mpp
        if head > 1e-9:
            assert ktm * spec.d_omega_max / ktg <= head + 1e-9
        if d.gains.beta_del > 1e-12:
            kp = d.gains.k_p
            assert (ktm / ktg) * kp * spec.d_omega_max \
                <= d.gains.beta_del + 1e-9


@given(v_w=st.floats(6.0, 13.0), eta=st.floats(0.72, 0.95))
@settings(max_examples=30, deadline=None)
def test_designed_gains_always_certify(v_w, eta):
    turbine = TurbineParams()
    surface = CpSurface()
    d = design_gains(turbine, surface, v_w, eta)
    assert d.gains.theorem1_ratio_ok
    assert ss.theorem1_conditions(
        d.gains.gsc.k_theta, d.gains.gsc.k_d, d.gains.msc.k_theta,
        d.gains.msc.k_d, d.k_wr + d.k_b * d.gains.k_p)


def test_infeasible_target_droop(turbine, surface):
    spec = DesignSpec(target_droop=1e-6)
    d = design_gains(turbine, surface, 10.0, 0.9, spec)
    assert d.status == "infeasible"


def test_mppt_gains_no_droop(turbine, surface):
    d = mppt_gains(turbine, surface, 8.0)
    assert d.status == "no-droop"
    assert math.isinf(d.m_p)
    assert d.gains.k_p == 0.0
    assert d.gains.msc.k_theta == d.gains.gsc.k_theta
    assert d.gains.beta_del == 0.0
    assert d.gains.omega_del <= turbine.omega_max + 1e-12


def test_mppt_gains_above_rated_pitch(turbine, surface):
    d = mppt_gains(turbine, surface, 13.0)
    assert d.gains.beta_del > 0.0
    assert d.gains.omega_del == pytest.approx(turbine.omega_max, abs=1e-12)


@pytest.mark.parametrize("variant", [
    {}, {"P_rated": 4e6}, {"R": 70.0}, {"omega_max": 1.1}])
def test_mppt_gains_is_the_eta_1_deload_point(variant, surface):
    # Turbines whose MPP speed stays below omega_max above rated wind: the
    # MPPT design must not run the rotor at the MPP speed with the pitch
    # solved for omega_max, which puts p_wt above rated.
    tb = TurbineParams(**variant)
    for v_w in np.arange(3.0, 25.01, 0.25):
        v_w = float(v_w)
        d = mppt_gains(tb, surface, v_w)
        pt = deload_point(tb, surface, v_w, 1.0)
        assert d.gains.omega_del == pt.omega_del, v_w
        assert d.gains.beta_del == pt.beta_del, v_w
        # the bisection's Cp tolerance, scaled to power
        tol = 1e-12 * tb.swept_k * v_w ** 3 / tb.P_rated
        p = wind_power_pu(tb, surface, v_w, d.gains.omega_del,
                          d.gains.beta_del)
        assert p <= 1.0 + tol, v_w


def test_mppt_and_fr_designs_report_one_mpp_speed(turbine, surface):
    # omega_mpp is the uncapped MPP speed in both designs; the MPPT design
    # reported its own operating speed, omega_max from 11.25 m/s up
    for v_w in np.arange(3.0, 25.01, 0.25):
        v_w = float(v_w)
        assert mppt_gains(turbine, surface, v_w).point.omega_mpp == \
            design_gains(turbine, surface, v_w, 0.9).point.omega_mpp, v_w


def test_droop_map_csv(turbine, surface):
    v_g = np.array([8.0, 10.0])
    e_g = np.array([0.9, 1.0])
    m, status = droop_map(turbine, surface, v_g, e_g)
    assert status[0][1] == "no-droop" and math.isinf(m[0][1])
    text = droop_map_to_csv(v_g, e_g, m, status)
    lines = text.strip().split("\n")
    assert lines[0] == "v_w,eta,m_p,status"
    assert len(lines) == 5
    assert lines[2].endswith("inf,no-droop")
