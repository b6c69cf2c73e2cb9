"""Steady-state gain selection and the smallest-achievable-droop map."""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

from .aero import (CpSurface, DesignError, TurbineParams, power_sensitivities,
                   require_finite, require_positive)
from .control import ControlGains, ConverterGains
from .curtailment import DeloadPoint, deload_point


class ZeroStiffnessError(DesignError):
    pass


# d_omega_max (pu) per published operating assumption
PRESETS = {"table3": 0.01, "fig7": 0.005}


@dataclass(frozen=True)
class DesignSpec:
    # pu, largest expected grid-frequency deviation
    d_omega_max: float = PRESETS["table3"]
    d_v_max: float = 0.02       # pu, allowed DC-voltage excursion
    msc_floor: float = 1.0      # pu, MSC gain floor when headroom vanishes
    target_droop: float | None = None  # pu, optional feasibility target
    k_d_gsc: float = 0.0067
    t_dc: float = 0.005         # s

    def __post_init__(self):
        require_positive(self, "d_omega_max", "d_v_max", "msc_floor", "t_dc")
        if not 0 <= self.k_d_gsc < math.inf:
            raise ValueError("k_d_gsc must be finite and non-negative")
        if self.target_droop is not None \
                and not 0 < self.target_droop < math.inf:
            raise ValueError("target_droop must be None or finite and "
                             "positive")


@dataclass(frozen=True)
class GainDesign:
    point: DeloadPoint      # checks its own fields
    gains: ControlGains
    m_p: float              # pu droop (inf when no steady-state response)
    k_wr: float
    k_b: float
    status: str             # "ok" | "no-droop" | "infeasible"

    def __post_init__(self):
        # m_p is droop_coefficient's, finite, or inf where there is no droop
        require_finite("gain design", {"k_wr": self.k_wr, "k_b": self.k_b,
                                       "k_p": self.gains.k_p})


def droop_coefficient(k_theta_gsc: float, k_theta_msc: float,
                      k_wr: float, k_b: float, k_p: float) -> float:
    den = k_theta_msc * (k_wr + k_b * k_p)
    if den <= 0:
        raise ZeroStiffnessError("no steady-state power response (zero stiffness)")
    m_p = k_theta_gsc / den
    # an overflow in den gives 0 and one in the quotient inf
    if not 0.0 < m_p < math.inf:
        raise DesignError(f"droop coefficient {m_p!r} is not finite and positive")
    return m_p


def max_gsc_gain(spec: DesignSpec) -> float:
    return spec.d_omega_max / spec.d_v_max


def max_msc_gain(spec: DesignSpec, k_theta_gsc: float, omega_del: float,
                 omega_mpp: float) -> float:
    head = omega_del - omega_mpp
    if head <= 1e-9:
        return spec.msc_floor
    return k_theta_gsc * head / spec.d_omega_max


def max_pitch_gain(spec: DesignSpec, k_theta_gsc: float, k_theta_msc: float,
                   beta_del: float) -> float:
    if k_theta_msc <= 0:
        raise DesignError("k_theta_msc must be positive")
    if beta_del <= 1e-12:
        return 0.0
    return (k_theta_gsc / k_theta_msc) * beta_del / spec.d_omega_max


def design_gains(params: TurbineParams, surface: CpSurface, v_w: float,
                 eta: float, spec: DesignSpec = DesignSpec()) -> GainDesign:
    """Largest-gain selection chain for one operating point."""
    pt = deload_point(params, surface, v_w, eta)
    ktg = max_gsc_gain(spec)
    ktm = max_msc_gain(spec, ktg, pt.omega_del, pt.omega_mpp)
    k_p = max_pitch_gain(spec, ktg, ktm, pt.beta_del)
    k_wr, k_b = power_sensitivities(params, surface, v_w, pt.omega_del,
                                    pt.beta_del)
    status = "ok"
    try:
        m_p = droop_coefficient(ktg, ktm, k_wr, k_b, k_p)
    except ZeroStiffnessError:
        m_p = math.inf
        status = "no-droop"
    if spec.target_droop is not None and m_p > spec.target_droop:
        status = "infeasible"
    kdg = spec.k_d_gsc
    gains = ControlGains(
        gsc=ConverterGains(k_theta=ktg, k_d=kdg),
        msc=ConverterGains(k_theta=ktm, k_d=kdg * ktm / ktg),
        t_dc=spec.t_dc, omega_del=pt.omega_del, k_p=k_p,
        beta_del=pt.beta_del)
    return GainDesign(point=pt, gains=gains, m_p=m_p, k_wr=k_wr, k_b=k_b,
                      status=status)


def mppt_gains(params: TurbineParams, surface: CpSurface, v_w: float,
               spec: DesignSpec = DesignSpec()) -> GainDesign:
    """MPPT gain set at the eta = 1 deload point: matched gains, no pitch droop."""
    pt = deload_point(params, surface, v_w, 1.0)
    ktg = max_gsc_gain(spec)
    kdg = spec.k_d_gsc
    gains = ControlGains(
        gsc=ConverterGains(k_theta=ktg, k_d=kdg),
        msc=ConverterGains(k_theta=ktg, k_d=kdg),
        t_dc=spec.t_dc, omega_del=pt.omega_del, k_p=0.0,
        beta_del=pt.beta_del)
    return GainDesign(point=pt, gains=gains, m_p=math.inf, k_wr=0.0, k_b=0.0,
                      status="no-droop")


def droop_map(params: TurbineParams, surface: CpSurface, v_grid, eta_grid,
              spec: DesignSpec = DesignSpec()):
    """Smallest achievable droop and the design status per grid cell, as
    nested lists indexed [i][j]: rows follow v_grid, columns eta_grid."""
    m = [[math.inf] * len(eta_grid) for _ in v_grid]
    status = [["no-droop"] * len(eta_grid) for _ in v_grid]
    for i, v in enumerate(v_grid):
        for j, e in enumerate(eta_grid):
            if e >= 1.0:
                continue
            d = design_gains(params, surface, float(v), float(e), spec)
            m[i][j], status[i][j] = d.m_p, d.status
    return m, status


def droop_map_to_csv(v_grid, eta_grid, m, status) -> str:
    buf = io.StringIO()
    buf.write("v_w,eta,m_p,status\n")
    for i, v in enumerate(v_grid):
        for j, e in enumerate(eta_grid):
            mp = m[i][j]
            mp_s = "inf" if math.isinf(mp) else f"{mp:.17g}"
            buf.write(f"{v:.17g},{e:.17g},{mp_s},{status[i][j]}\n")
    return buf.getvalue()
