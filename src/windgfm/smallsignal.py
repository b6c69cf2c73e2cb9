"""Six-state small-signal model, stability test, and LaSalle certificate."""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .aero import DesignError
from .control import ControlGains, ratio_matched
from .plant import PlantParams, j_wt

STATE_LABELS = ("rho_1", "rho_2", "omega_g", "omega_r", "v_dc", "p_g")


class SmallSignalError(DesignError):
    pass


@dataclass(frozen=True)
class SmallSignalModel:
    """T x' = A x for x = STATE_LABELS, built from the twelve parameters.

    rho_1 is the GSC-SG angle difference, rho_2 the MSC-rotor angle
    difference; k_wt is the aggregate torque stiffness K_omega_r + K_beta K_p.
    Assumes zero DC-filter lag and constant voltage magnitudes.
    """

    j_g: float          # J_g * omega_g at its 1 pu setpoint
    j_wt: float         # J_wt * omega_del
    c_dc: float
    t_g: float
    k_g: float
    b_g: float
    b_msc: float
    k_theta_gsc: float
    k_d_gsc: float
    k_theta_msc: float
    k_d_msc: float
    k_wt: float
    T: np.ndarray = field(init=False)   # 6x6 diagonal
    A: np.ndarray = field(init=False)   # 6x6

    def __post_init__(self):
        for name in ("j_g", "j_wt", "c_dc", "t_g", "k_g", "b_g", "b_msc",
                     "k_theta_gsc", "k_theta_msc"):
            if getattr(self, name) <= 0:
                raise SmallSignalError(f"{name} must be positive")
        if self.k_d_gsc < 0 or self.k_d_msc < 0:
            raise SmallSignalError("derivative gains must be non-negative")
        T = np.diag([1.0, 1.0, self.j_g, self.j_wt, self.c_dc, self.t_g])
        k1 = self.k_d_gsc / self.c_dc
        k2 = self.k_d_msc / self.c_dc
        b_g, b_msc = self.b_g, self.b_msc
        A = np.array([
            [-k1 * b_g, -k1 * b_msc, -1.0, 0.0, self.k_theta_gsc, 0.0],
            [-k2 * b_g, -k2 * b_msc, 0.0, -1.0, self.k_theta_msc, 0.0],
            [b_g, 0.0, 0.0, 0.0, 0.0, 1.0],
            [0.0, b_msc, 0.0, -self.k_wt, 0.0, 0.0],
            [-b_g, -b_msc, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, -self.k_g, 0.0, 0.0, -1.0]])
        # a product of finite parameters, such as J_wt * omega_nom^2, overflows
        # to inf silently in Python floats
        if not (np.isfinite(T).all() and np.isfinite(A).all()):
            raise SmallSignalError("T or A is not finite")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "A", A)


@dataclass(frozen=True)
class LaSalleReport:
    max_eig_S: float        # largest eigenvalue of sym(M At + At' M)
    m_positive_definite: bool

    @property
    def certified(self) -> bool:
        return self.m_positive_definite and self.max_eig_S <= 1e-9


def model_from_params(plant: PlantParams, gains: ControlGains,
                      k_wr: float, k_b: float) -> SmallSignalModel:
    nw = plant.network
    sg = plant.sg
    return SmallSignalModel(
        j_g=sg.j_g(nw.s_base),
        j_wt=j_wt(plant.turbine, nw.s_base) * gains.omega_del,
        c_dc=nw.c_dc, t_g=sg.t_g, k_g=sg.k_g(nw.s_base),
        b_g=nw.b_g, b_msc=nw.b_msc,
        k_theta_gsc=gains.gsc.k_theta, k_d_gsc=gains.gsc.k_d,
        k_theta_msc=gains.msc.k_theta, k_d_msc=gains.msc.k_d,
        k_wt=k_wr + k_b * gains.k_p)


def system_matrix(model: SmallSignalModel) -> np.ndarray:
    sys_a = np.linalg.solve(model.T, model.A)
    if not np.isfinite(sys_a).all():
        raise SmallSignalError("T^-1 A is not finite")
    return sys_a


def stability_verdict(model: SmallSignalModel) -> tuple[np.ndarray, bool]:
    """(spectrum of T^-1 A, stable), stable iff max Re < -1e-9."""
    lam = np.linalg.eigvals(system_matrix(model))
    return lam, bool(lam.real.max() < -1e-9)


def theorem1_conditions(k_theta_gsc: float, k_d_gsc: float,
                        k_theta_msc: float, k_d_msc: float,
                        k_wt: float) -> bool:
    """Stiffness non-negativity plus matched derivative-to-proportional ratio."""
    if k_wt < 0:
        return False
    return ratio_matched(k_theta_gsc, k_d_gsc, k_theta_msc, k_d_msc)


def lasalle_verify(model: SmallSignalModel) -> LaSalleReport:
    """Numeric certificate in x = (B rho, omega, v_dc, p_g) coordinates.

    M = 1/2 diag((K_theta B)^-1, K_theta^-1 J, C_dc, T_g/(k_theta_gsc k_g));
    S = sym(M At + At' M) should be negative semidefinite.
    """
    if not theorem1_conditions(model.k_theta_gsc, model.k_d_gsc,
                               model.k_theta_msc, model.k_d_msc,
                               model.k_wt):
        raise SmallSignalError("Theorem-1 conditions do not hold")
    S_tr = np.diag([model.b_g, model.b_msc, 1.0, 1.0, 1.0, 1.0])
    At = S_tr @ system_matrix(model) @ np.linalg.inv(S_tr)
    M = 0.5 * np.diag([
        1.0 / (model.k_theta_gsc * model.b_g),
        1.0 / (model.k_theta_msc * model.b_msc),
        model.j_g / model.k_theta_gsc,
        model.j_wt / model.k_theta_msc,
        model.c_dc,
        model.t_g / (model.k_theta_gsc * model.k_g)])
    S = M @ At + At.T @ M
    S = 0.5 * (S + S.T)
    eigM = np.linalg.eigvalsh(M)
    return LaSalleReport(
        max_eig_S=float(np.linalg.eigvalsh(S).max()),
        m_positive_definite=bool(eigM.min() > 0))


def model_to_json(model: SmallSignalModel, lam: np.ndarray,
                  stable: bool) -> str:
    """The model's JSON, with stability_verdict's (lam, stable)."""
    return json.dumps({
        "labels": list(STATE_LABELS),
        "T": model.T.tolist(),
        "A": model.A.tolist(),
        "eigenvalues": [[float(z.real), float(z.imag)] for z in lam],
        "stable": stable,
    }, indent=2)
