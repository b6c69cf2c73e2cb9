import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from windgfm import aero
from windgfm.aero import (
    BETZ, AeroDomainError, CpSurface, TurbineParams, cp, cp_partials,
    find_mpp, power_sensitivities,
)


def test_calibrated_mpp_location(surface):
    lam, cpm = find_mpp(surface)
    assert 9.0 <= lam <= 9.5
    assert cpm == pytest.approx(aero.CALIBRATED_CPMAX, rel=1e-6)


def test_find_mpp_matches_fine_grid_oracle(surface):
    # independent oracle: brute-force scan at 1e-5 resolution
    grid = np.arange(8.5, 10.0, 1e-5)
    vals = np.array([cp(surface, l, 0.0) for l in grid])
    lam_oracle = grid[int(np.argmax(vals))]
    lam, _ = find_mpp(surface)
    assert lam == pytest.approx(lam_oracle, abs=2e-5)


def test_find_mpp_first_order_condition(surface):
    lam, _ = find_mpp(surface)
    dl, _ = cp_partials(surface, lam, 0.0)
    assert abs(dl) < 1e-5


def test_find_mpp_is_the_zero_pitch_ridge(surface):
    # closed form: the ridge lam0, where Cp(., 0) is cpmax exactly and flat
    lam, cpm = find_mpp(surface)
    assert lam == aero.CALIBRATED_COEFFS[5]
    assert cpm == aero.CALIBRATED_CPMAX
    assert cp_partials(surface, lam, 0.0)[0] == 0.0
    # independent oracle: no point of a dense scan lies above it
    grid = np.arange(2.0, 15.0, 1e-3)
    assert max(cp(surface, l, 0.0) for l in grid) <= cpm


def test_find_mpp_flat_surface_raises():
    with pytest.raises(AeroDomainError):
        find_mpp(CpSurface(cpmax_scale=0.0))


@given(lam=st.floats(0.5, 20.0), beta=st.floats(0.0, 30.0))
@settings(max_examples=200, deadline=None)
def test_cp_respects_betz_limit(lam, beta):
    v = cp(CpSurface(), lam, beta)
    assert 0.0 <= v <= BETZ


def test_betz_clamp_keeps_nan(surface):
    # a NaN Cp must reach the kernel's divergence check, not the Betz limit
    v = aero._cp_calibrated(float("nan"), 0.0, surface.coeffs,
                            surface.cpmax_scale)
    assert v != v


def test_cp_rejects_nonpositive_lambda(surface):
    with pytest.raises(AeroDomainError):
        cp(surface, 0.0, 0.0)
    with pytest.raises(AeroDomainError):
        cp(surface, -1.0, 0.0)


def _fd_partials(s, lam, beta, h=1e-6):
    """Central differences; one-sided in beta at the beta = 0 boundary."""
    dl = (cp(s, lam + h, beta) - cp(s, lam - h, beta)) / (2 * h)
    b_lo, b_hi = max(beta - h, 0.0), beta + h
    db = (cp(s, lam, b_hi) - cp(s, lam, b_lo)) / (b_hi - b_lo)
    return dl, db


@given(lam=st.floats(3.0, 14.0), beta=st.floats(0.0, 25.0))
@example(lam=8.0, beta=1e-7)
@settings(max_examples=100, deadline=None)
def test_calibrated_partials_match_finite_differences(lam, beta):
    s = CpSurface()
    dl, db = cp_partials(s, lam, beta)
    dl_fd, db_fd = _fd_partials(s, lam, beta)
    # skip points where the [0, Betz] clamp is active (the partials ignore it)
    raw = aero._cp_calibrated(lam, beta, s.coeffs, s.cpmax_scale)
    if 1e-6 < raw < BETZ - 1e-6:
        assert dl == pytest.approx(dl_fd, rel=1e-4, abs=1e-7)
        assert db == pytest.approx(db_fd, rel=1e-4, abs=1e-7)


def test_sensitivities_zero_at_mpp(turbine, surface):
    lam_mpp, _ = find_mpp(surface)
    v_w = 8.0
    om_mpp = lam_mpp * v_w / (turbine.R * turbine.omega_nom)
    k_wr, _ = power_sensitivities(turbine, surface, v_w, om_mpp, 0.0)
    assert k_wr == 0.0


def test_sensitivities_reference_values(turbine, surface):
    from windgfm.curtailment import deload_point
    # overspeed-deloaded points: speed sensitivity within 30% of the
    # published study values
    p8 = deload_point(turbine, surface, 8.0, 0.9)
    k_wr8, _ = power_sensitivities(turbine, surface, 8.0, p8.omega_del,
                                   p8.beta_del)
    assert k_wr8 == pytest.approx(0.119, rel=0.30)
    p10 = deload_point(turbine, surface, 10.0, 0.9)
    k_wr10, _ = power_sensitivities(turbine, surface, 10.0, p10.omega_del,
                                    p10.beta_del)
    assert k_wr10 == pytest.approx(0.082, rel=0.30)
    p12 = deload_point(turbine, surface, 12.0, 0.9)
    _, k_b12 = power_sensitivities(turbine, surface, 12.0, p12.omega_del,
                                   p12.beta_del)
    assert k_b12 == pytest.approx(0.083, rel=0.30)


@given(v_w=st.floats(6.0, 12.0), eta=st.floats(0.75, 0.95))
@settings(max_examples=40, deadline=None)
def test_sensitivities_agree_with_secant_oracle(v_w, eta):
    # independent oracle: symmetric secant at half the documented FD step
    from windgfm.curtailment import deload_point
    turbine = TurbineParams()
    surface = CpSurface()
    pt = deload_point(turbine, surface, v_w, eta)
    k_wr, k_b = power_sensitivities(turbine, surface, v_w, pt.omega_del,
                                    pt.beta_del)

    def p_pu(om, b):
        lam = turbine.R * om * turbine.omega_nom / v_w
        return turbine.swept_k * cp(surface, lam, b) * v_w ** 3 / turbine.P_rated

    h = 5e-5
    sec_wr = -(p_pu(pt.omega_del + h, pt.beta_del)
               - p_pu(pt.omega_del - h, pt.beta_del)) / (2 * h)
    if abs(sec_wr) > 1e-3:
        assert k_wr == pytest.approx(sec_wr, rel=0.01)
    if pt.beta_del > 0.5:
        hb = 5e-4
        sec_b = -(p_pu(pt.omega_del, pt.beta_del + hb)
                  - p_pu(pt.omega_del, pt.beta_del - hb)) / (2 * hb)
        assert k_b == pytest.approx(sec_b, rel=0.01)


def test_sensitivities_fd_method_matches_analytic(turbine, surface):
    # central difference of per-unit P_wt in omega_r, step 1e-4 pu
    from windgfm.curtailment import deload_point
    pt = deload_point(turbine, surface, 8.0, 0.9)
    a = power_sensitivities(turbine, surface, 8.0, pt.omega_del, pt.beta_del)

    def p_pu(om):
        lam = turbine.R * om * turbine.omega_nom / 8.0
        return (turbine.swept_k * cp(surface, lam, pt.beta_del) * 8.0 ** 3
                / turbine.P_rated)

    h = 1e-4
    fd = -(p_pu(pt.omega_del + h) - p_pu(pt.omega_del - h)) / (2 * h)
    assert a[0] == pytest.approx(fd, rel=1e-4)


def test_turbine_params_validation():
    with pytest.raises(ValueError):
        TurbineParams(R=-1.0)
    with pytest.raises(ValueError):
        TurbineParams(n_agg=0)
    for bad in ({"omega_max": 0.0}, {"omega_max": -1.0},
                {"omega_max": np.nan}, {"R": np.nan}, {"rho": np.nan},
                {"n_agg": np.nan}):
        with pytest.raises(ValueError):
            TurbineParams(**bad)
