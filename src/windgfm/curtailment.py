"""Deloaded operating points: overspeed-first curtailment with pitch fallback."""
from __future__ import annotations

import io
from dataclasses import dataclass

from .aero import (CpSurface, DesignError, TurbineParams, cp, find_mpp,
                   require_finite)
from .control import BETA_MAX, BETA_MIN


class CurtailmentError(DesignError):
    pass


@dataclass(frozen=True)
class DeloadPoint:
    v_w: float          # m/s
    eta: float          # curtailment fraction in (0, 1]
    lam_del: float      # tip-speed ratio at the deloaded point
    omega_del: float    # pu of omega_nom
    beta_del: float     # degrees
    omega_mpp: float    # pu, lam_mpp / lam_per_pu(v_w), not capped

    def __post_init__(self):
        require_finite("deload point", vars(self))


def _solve(f, f_lo: float, lo: float, hi: float, unreachable: str) -> float:
    """The root of f, decreasing on [lo, hi], given f_lo = f(lo): lo where
    f_lo <= 0, else bisection to |f| < 1e-12 or a 1e-13 bracket.  Raises
    CurtailmentError(unreachable) where f(hi) > 0."""
    if f_lo <= 0:
        return lo
    fhi = f(hi)
    if fhi > 0:
        raise CurtailmentError(unreachable)
    if fhi == 0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) < 1e-12 or hi - lo < 1e-13:
            return mid
        if fm < 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def solve_pitch_deload(surface: CpSurface, lam_capped: float, eta: float,
                       target_cp: float) -> float:
    """beta_del in the servo's range [beta_min, beta_max] with
    Cp(lam_capped, beta_del) = eta * target_cp."""
    goal = eta * target_cp
    return _solve(lambda b: cp(surface, lam_capped, b) - goal,
                  cp(surface, lam_capped, BETA_MIN) - goal, BETA_MIN, BETA_MAX,
                  f"target below reach even at beta = {BETA_MAX:g} deg")


def deload_point(params: TurbineParams, surface: CpSurface, v_w: float,
                 eta: float) -> DeloadPoint:
    """Overspeed-first branch logic; pitch only once omega hits omega_max.

    Above rated wind the target power is clamped to eta * P_rated.
    """
    lam_mpp, cp_max = find_mpp(surface)
    scale = params.power_scale(v_w)
    lam_c = params.lam_per_pu(v_w)
    target_cp = min(cp_max, 1.0 / scale)  # Cp equivalent of the clamped target
    lam_cap = lam_c * params.omega_max

    try:
        lam_del = solve_speed_deload_target(surface, eta * target_cp, lam_mpp,
                                            cp_max)
    except CurtailmentError:
        lam_del = None
    if lam_del is not None and lam_del <= lam_cap:
        om = lam_del / lam_c
        beta = 0.0
    else:
        om = params.omega_max
        lam_del = lam_cap
        beta = solve_pitch_deload(surface, lam_cap, eta, target_cp)
    return DeloadPoint(v_w=v_w, eta=eta, lam_del=lam_del, omega_del=om,
                       beta_del=beta, omega_mpp=lam_mpp / lam_c)


def solve_speed_deload_target(surface: CpSurface, target: float,
                              lam_mpp: float, cp_max: float) -> float:
    """Overspeed solve, lambda in [lam_mpp, 25], against an absolute Cp
    target; cp_max is find_mpp's Cp(lam_mpp, 0)."""
    return _solve(lambda l: cp(surface, l, 0.0) - target, cp_max - target,
                  lam_mpp, 25.0, "curtailment unreachable by overspeed alone")


def build_table(params: TurbineParams, surface: CpSurface,
                v_grid=None, eta_grid=None) -> tuple[DeloadPoint, ...]:
    """The deload points of the grid, row-major in (v_w, eta)."""
    if v_grid is None:
        v_grid = [4.0 + 0.5 * k for k in range(21)]
    if eta_grid is None:
        eta_grid = [0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0]
    return tuple(deload_point(params, surface, float(v), float(e))
                 for v in v_grid for e in eta_grid)


def table_to_csv(table: tuple[DeloadPoint, ...]) -> str:
    buf = io.StringIO()
    buf.write("v_w,eta,lambda_del,omega_del_pu,beta_del_deg\n")
    for p in table:
        buf.write(f"{p.v_w:.17g},{p.eta:.17g},{p.lam_del:.17g},"
                  f"{p.omega_del:.17g},{p.beta_del:.17g}\n")
    return buf.getvalue()
