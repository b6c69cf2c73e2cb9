"""Aerodynamic power-coefficient surface and its sensitivities."""
from __future__ import annotations

import math
from dataclasses import dataclass

BETZ = 16.0 / 27.0

# Calibrated surface: Cp = cpmax * h(beta) * g(u) with
#   u      = (lambda - lam_ridge(beta)) / w
#   g(u)   = (1 - D u^2/(1+u^2) - E u^4/(1+u^4)) * exp(-|u/U|^q)
#   h(beta)= exp(-(a1 b + a2 b^2 + a3 b^3 + a4 b^4))
#   lam_ridge(beta) = lam0 + p1 b exp(-(b/p2)^2) - L (1 - exp(-b/bb))
# The coefficients were fit numerically so that the deloading points,
# gain-design chain, and steady-state droop of the default study system
# are mutually consistent (see README).
CALIBRATED_COEFFS = (
    1.816604532190e+00,   # w
    5.403229211671e-02,   # D
    1.094872245521e-02,   # E
    7.723725501470e+00,   # U
    2.000245242771e+00,   # q
    9.219542609547e+00,   # lam0
    1.453042926412e-05,   # a1
    2.187405083668e-02,   # a2
    -4.456151661055e-03,  # a3
    3.421795922745e-04,   # a4
    5.997991057029e+00,   # L
    3.442179882123e+00,   # bb
    1.576175390162e+00,   # p1
    1.080221118015e+01,   # p2
)
CALIBRATED_CPMAX = 0.4622678296929199


class DesignError(ValueError):
    """The inputs admit no operating point, gain design or model."""


class AeroDomainError(DesignError):
    pass


def require_finite(what: str, values: dict) -> None:
    """Raise DesignError naming each non-finite value in values.  The design
    chain runs in Python floats, whose overflow gives inf, not an error."""
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        raise DesignError(f"{what}: {', '.join(bad)} not finite")


def require_positive(obj, *names: str) -> None:
    """Raise ValueError for the first of obj's attributes names that is not
    finite and positive.  Written `not 0 < x < inf` so that NaN fails too."""
    for name in names:
        if not 0 < getattr(obj, name) < math.inf:
            raise ValueError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class CpSurface:
    """Calibrated power-coefficient surface Cp(lambda, beta)."""

    coeffs: tuple = CALIBRATED_COEFFS
    cpmax_scale: float = CALIBRATED_CPMAX


@dataclass(frozen=True)
class TurbineParams:
    rho: float = 1.225          # kg/m^3
    R: float = 63.0             # m
    J_wt: float = 35.328e6      # kg m^2, one turbine (rotor+generator, lumped)
    omega_nom: float = 1.37     # rad/s mech, per-unit base for omega_r
    omega_max: float = 1.2      # pu
    P_rated: float = 5e6        # W, one turbine
    n_agg: int = 10             # aggregated turbine count

    def __post_init__(self):
        require_positive(self, "rho", "R", "J_wt", "omega_nom", "omega_max",
                         "P_rated")
        # written `not lo < x < hi` so that NaN is rejected too
        if not 1 <= self.n_agg < math.inf:
            raise ValueError("n_agg must be finite and >= 1")

    @property
    def swept_k(self) -> float:
        """0.5*rho*pi*R^2, the swept-area factor of the power equation."""
        return 0.5 * self.rho * math.pi * self.R ** 2

    # P_wt (pu) = power_scale(v_w) * Cp(lam_per_pu(v_w) * omega_r, beta), omega_r
    # in pu: every evaluation, the kernels' included, takes these two factors
    def lam_per_pu(self, v_w: float) -> float:
        """Tip-speed ratio per pu rotor speed at wind speed v_w."""
        return self.R * self.omega_nom / v_w

    def power_scale(self, v_w: float) -> float:
        """P_wt in pu of P_rated per unit Cp at wind speed v_w."""
        return self.swept_k * v_w ** 3 / self.P_rated


def _cp_calibrated(lam: float, beta: float, c, cpmax: float) -> float:
    """Calibrated Cp clamped to [0, Betz limit].

    The simulation kernels evaluate this surface; the compiled kernel
    repeats it in the same operation order, so the two agree bit for bit.
    """
    w, D, E, U, q, lam0, a1, a2, a3, a4, L, bb, p1, p2 = c
    r = beta / p2
    b2 = beta * beta
    b3 = b2 * beta
    b4 = b3 * beta
    lr = lam0 + p1 * beta * math.exp(-(r * r)) - L * (1.0 - math.exp(-beta / bb))
    u = (lam - lr) / w
    s = u * u
    g = (1.0 - D * s / (1.0 + s) - E * s * s / (1.0 + s * s)) * math.exp(-abs(u / U) ** q)
    h = math.exp(-(a1 * beta + a2 * b2 + a3 * b3 + a4 * b4))
    v = cpmax * h * g
    if v < 0.0:
        return 0.0
    return BETZ if v > BETZ else v  # NaN stays NaN


def cp(surface: CpSurface, lam: float, beta: float) -> float:
    """Cp(lambda, beta), clamped to [0, Betz limit]."""
    if lam <= 0:
        raise AeroDomainError("lambda must be positive")
    return _cp_calibrated(lam, beta, surface.coeffs, surface.cpmax_scale)


def cp_partials(surface: CpSurface, lam: float, beta: float) -> tuple[float, float]:
    """(dCp/dlambda, dCp/dbeta) in closed form."""
    w, D, E, U, q, lam0, a1, a2, a3, a4, L, bb, p1, p2 = surface.coeffs
    eb = math.exp(-(beta / p2) ** 2)
    lr = lam0 + p1 * beta * eb - L * (1.0 - math.exp(-beta / bb))
    dlr = p1 * eb * (1.0 - 2.0 * beta * beta / (p2 * p2)) \
        - L * (-1.0 / bb) * math.exp(-beta / bb) * (-1.0)
    u = (lam - lr) / w
    s = u * u
    G = 1.0 - D * s / (1.0 + s) - E * s * s / (1.0 + s * s)
    dG = -D * 2.0 * u / (1.0 + s) ** 2 - E * 4.0 * s * u / (1.0 + s * s) ** 2
    au = abs(u / U)
    Eq = math.exp(-au ** q)
    dEq = 0.0 if u == 0.0 else -Eq * (q / U) * au ** (q - 1.0) * math.copysign(1.0, u)
    g = G * Eq
    dg = dG * Eq + G * dEq
    poly = a1 * beta + a2 * beta ** 2 + a3 * beta ** 3 + a4 * beta ** 4
    h = math.exp(-poly)
    dh = -h * (a1 + 2 * a2 * beta + 3 * a3 * beta ** 2 + 4 * a4 * beta ** 3)
    cpm = surface.cpmax_scale
    return cpm * h * dg / w, cpm * (dh * g + h * dg * (-dlr / w))


def find_mpp(surface: CpSurface) -> tuple[float, float]:
    """(lam_mpp, cp_max) of Cp(., 0), in closed form.

    At beta = 0 the ridge is lam_ridge = lam0 and h = 1, so Cp(., 0) =
    cpmax * g((lambda - lam0) / w).  With D, E >= 0 both factors of g peak
    at u = 0 only, so the maximum is at lambda = lam0.
    """
    lam0 = surface.coeffs[5]
    cp_max = cp(surface, lam0, 0.0)
    if not cp_max > 0.0:
        raise AeroDomainError("Cp(.,0) has no positive maximum")
    return lam0, cp_max


def power_sensitivities(params: TurbineParams, surface: CpSurface, v_w: float,
                        omega_del: float, beta_del: float) -> tuple[float, float]:
    """(K_omega_r, K_beta): negated sensitivities of per-unit P_wt at the
    operating point, in pu/pu-speed and pu/degree.

    K_omega_r = -dP/domega_r, K_beta = -dP/dbeta; both are >= 0 on the
    deloaded branch.  Values with |K_omega_r| < 1e-4, or small-negative
    above -1e-3 (numerical noise at the MPP), are reported as 0.
    """
    lam_c = params.lam_per_pu(v_w)
    dl, db = cp_partials(surface, lam_c * omega_del, beta_del)
    scale = params.power_scale(v_w)  # per-turbine pu
    k_wr = -scale * dl * lam_c
    k_b = -scale * db
    if not (math.isfinite(k_wr) and math.isfinite(k_b)):
        raise AeroDomainError("power sensitivities are not finite")
    if abs(k_wr) < 1e-4 or -1e-3 < k_wr < 0.0:
        k_wr = 0.0
    return k_wr, k_b
