"""Reduced-order plant: per-unit system, packing, equilibrium, integration.

numpy is imported by the functions that build or integrate the state, not by
the module: the design commands use the parameter classes only.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import _kernel
from ._kernel.layout import (
    N_PARAMS, P_BETADEL, P_BETAMAX, P_BETAMIN, P_BG, P_BM, P_CDC, P_CP0,
    P_CPMAX, P_JG, P_JWT, P_KDG, P_KDM, P_KG, P_KILIM, P_KP, P_KPLIM, P_KTG,
    P_KTM, P_LAMC, P_OMDEL, P_OMMAX, P_PCONST, P_PG0, P_PMAX, P_PSCALE,
    P_RATE, P_TDC, P_TG, P_TSERVO, ROW, STATES,
)
from .aero import CpSurface, TurbineParams, cp
from .control import ControlGains

if TYPE_CHECKING:
    import numpy as np


class Mode(enum.IntEnum):
    GFL_MPPT = 0
    GFM_MPPT = 1
    GFM_FR = 2


class PlantError(RuntimeError):
    pass


@dataclass(frozen=True)
class SgParams:
    """Synchronous generator with first-order governor."""

    h_g: float = 4.0        # s, inertia constant on own rating
    t_g: float = 0.5        # s, governor time constant
    droop: float = 0.05     # pu on own rating
    rating: float = 210e6   # VA

    def __post_init__(self):
        for name in ("h_g", "t_g", "droop", "rating"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")

    def j_g(self, s_base: float) -> float:
        return 2.0 * self.h_g * self.rating / s_base

    def k_g(self, s_base: float) -> float:
        return (self.rating / s_base) / self.droop


def j_wt(turbine: TurbineParams, s_base: float) -> float:
    """Inertia coefficient of the aggregated turbines on the system base."""
    return turbine.n_agg * turbine.J_wt * turbine.omega_nom ** 2 / s_base


@dataclass(frozen=True)
class NetworkParams:
    """Per-unit network and DC-link constants on the aggregate WT base."""

    b_g: float = 100.0          # pu synchronizing coefficient, SG-GSC line
    b_msc: float = 5.0          # pu synchronizing coefficient, machine link
    c_dc: float = 0.3999435264  # pu DC-link capacitance coefficient
    s_base: float = 50e6        # VA
    f_hz: float = 50.0          # Hz

    def __post_init__(self):
        for name in ("b_g", "b_msc", "c_dc", "s_base", "f_hz"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class PlantParams:
    turbine: TurbineParams
    sg: SgParams
    network: NetworkParams


@dataclass(frozen=True)
class LoadProfile:
    """Piecewise-constant load: base plus step events (time s, dP pu)."""

    base: float = 2.0
    events: tuple = ((30.0, 0.4),)

    @property
    def ev_times(self) -> tuple:
        return tuple(t for t, _ in self.events)

    @property
    def ev_steps(self) -> tuple:
        return tuple(dp for _, dp in self.events)


def wind_power_pu(params: TurbineParams, surface: CpSurface, v_w: float,
                  omega_pu: float, beta: float) -> float:
    """WT power in system pu (aggregate base = n_agg * P_rated), by the
    kernels' operations on the packed P_PSCALE and P_LAMC."""
    lam = params.lam_per_pu(v_w) * omega_pu
    return params.power_scale(v_w) * cp(surface, lam, beta)


def pack_params(plant: PlantParams, gains: ControlGains, surface: CpSurface,
                v_w: float, p_g0: float, p_const: float) -> np.ndarray:
    """Flat parameter vector for the simulation kernels."""
    import numpy as np
    tb, sg, nw = plant.turbine, plant.sg, plant.network
    p = np.zeros(N_PARAMS)
    p[P_JG] = sg.j_g(nw.s_base)
    p[P_TG] = sg.t_g
    p[P_KG] = sg.k_g(nw.s_base)
    p[P_BG] = nw.b_g
    p[P_BM] = nw.b_msc
    p[P_JWT] = j_wt(tb, nw.s_base)
    p[P_CDC] = nw.c_dc
    p[P_TDC] = gains.t_dc
    p[P_KDG] = gains.gsc.k_d
    p[P_KTG] = gains.gsc.k_theta
    p[P_KDM] = gains.msc.k_d
    p[P_KTM] = gains.msc.k_theta
    p[P_OMDEL] = gains.omega_del
    p[P_BETADEL] = gains.pitch.beta_del
    p[P_KP] = gains.pitch.k_p
    p[P_TSERVO] = gains.pitch.t_servo
    p[P_RATE] = gains.pitch.rate_limit
    p[P_KPLIM] = gains.pitch.kp_lim
    p[P_KILIM] = gains.pitch.ki_lim
    p[P_PMAX] = gains.pitch.p_max_msc
    p[P_OMMAX] = tb.omega_max
    p[P_PG0] = p_g0
    p[P_PCONST] = p_const
    p[P_PSCALE] = tb.power_scale(v_w)
    p[P_LAMC] = tb.lam_per_pu(v_w)
    p[P_CP0:P_CP0 + 14] = surface.coeffs
    p[P_CPMAX] = surface.cpmax_scale
    p[P_BETAMIN] = gains.pitch.beta_min
    p[P_BETAMAX] = gains.pitch.beta_max
    return p


def closed_loop_derivative(x, t: float, p_arr: np.ndarray, mode: Mode,
                           load: LoadProfile) -> np.ndarray:
    """d state/dt in layout.STATES order, via the active kernel."""
    import numpy as np
    x = np.asarray(x, dtype=float)
    v_dc, om_r = x[STATES.index("v_dc")], x[STATES.index("omega_r")]
    if v_dc <= 0 or om_r <= 0:
        raise PlantError(f"invalid state: v_dc={v_dc}, omega_r={om_r}")
    return np.array(_kernel.derivative(x, t, p_arr, int(mode), load.base,
                                       load.ev_times, load.ev_steps))


def find_equilibrium(plant: PlantParams, gains: ControlGains,
                     surface: CpSurface, v_w: float, load: LoadProfile,
                     mode: Mode) -> tuple[np.ndarray, np.ndarray, float]:
    """Pre-disturbance equilibrium (state, packed params, initial WT power).

    The algebraic solution (rho = arcsin(P/b) on both links, v_dc = 1,
    omega_g = 1, omega_r = omega_del, the other states 0) is exact for this
    model; the residual of the closed-loop derivative is verified < 1e-9.  On the whole envelope
    (v_w 5-25 m/s, every mode) it is also an exact fixed point of the
    kernels' RK4 step, bit for bit, so they integrate nothing before the
    first load event.
    """
    import numpy as np
    nw = plant.network
    om_del = gains.omega_del
    beta_del = gains.pitch.beta_del
    p_wt0 = wind_power_pu(plant.turbine, surface, v_w, om_del, beta_del)
    p_const = min(p_wt0, 1.0)
    base = load.base
    p_g0 = base - (p_const if mode == Mode.GFL_MPPT else p_wt0)
    p_arr = pack_params(plant, gains, surface, v_w, p_g0, p_const)
    if p_wt0 >= nw.b_g or p_wt0 >= nw.b_msc:
        raise PlantError("synchronizing coefficients too small for this power")
    state = {"rho_1": math.asin(p_wt0 / nw.b_g), "omega_g": 1.0,
             "P_g": p_g0, "v_dc": 1.0, "rho_2": math.asin(p_wt0 / nw.b_msc),
             "omega_r": om_del, "beta": beta_del}
    x0 = np.array([state.get(name, 0.0) for name in STATES])
    pre_load = LoadProfile(base=base, events=())
    resid = np.max(np.abs(closed_loop_derivative(x0, 0.0, p_arr, mode, pre_load)))
    if resid > 1e-9:
        raise PlantError(f"equilibrium residual {resid:.3e} exceeds 1e-9")
    return x0, p_arr, p_wt0


# Most RK4 steps in one run, or in one stride: the compiled kernel counts
# both in C ints.
MAX_STEPS = 2 ** 31 - 1


def sample_grid(duration: float, dt: float, sample_dt: float) -> tuple[int, int]:
    """(RK4 steps, steps per sampled row) of a run."""
    return int(round(duration / dt)), max(int(round(sample_dt / dt)), 1)


def simulate(x0, p_arr: np.ndarray, mode: Mode, load: LoadProfile,
             duration: float, dt: float, sample_dt: float) -> np.ndarray:
    """Integrate with the active kernel; rows are layout.ROW: t, the
    states, then P_wt, P_gsc and w_gsc taken at the row's state.  The array
    is a writable view of the kernel's bytearray, not a copy."""
    import numpy as np
    n_steps, stride = sample_grid(duration, dt, sample_dt)
    try:
        rows = _kernel.simulate(x0, p_arr, int(mode), dt, n_steps, stride,
                                load.base, load.ev_times, load.ev_steps)
    except FloatingPointError as e:
        raise PlantError(str(e)) from e
    return np.frombuffer(rows).reshape(-1, len(ROW))
