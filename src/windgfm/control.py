"""Dual-port converter controllers and pitch control."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .aero import DesignError


# The pitch loop's fixed constants, which no design or config sets
KP_LIM = 50.0       # limiter PI proportional gain (both channels)
KI_LIM = 20.0       # limiter PI integral gain
PMAX_MSC = 1.05     # pu, MSC power above which the power limiter pitches
T_SERVO = 0.3       # s, pitch servo time constant
RATE_LIMIT = 8.0    # deg/s, pitch servo rate limit
BETA_MIN = 0.0      # deg, pitch range
BETA_MAX = 30.0     # deg


@dataclass(frozen=True)
class ConverterGains:
    """One converter channel of the dual-port frequency law."""

    k_theta: float          # pu-freq / pu-Vdc
    k_d: float              # pu-freq*s / pu-Vdc

    def __post_init__(self):
        if not 0 < self.k_theta < math.inf:
            raise DesignError("k_theta must be finite and positive")
        if not 0 <= self.k_d < math.inf:
            raise DesignError("k_d must be finite and non-negative")


@dataclass(frozen=True)
class ControlGains:
    """The gains and setpoints a design chooses for one operating point."""

    gsc: ConverterGains
    msc: ConverterGains
    t_dc: float             # s, DC-filter time constant of both converters
    omega_del: float        # pu, MSC (rotor) frequency setpoint
    k_p: float              # deg / pu-speed, proportional pitch gain
    beta_del: float         # deg, pitch setpoint

    def __post_init__(self):
        if not self.t_dc > 0:
            raise ValueError("t_dc must be positive")

    @property
    def theorem1_ratio_ok(self) -> bool:
        return ratio_matched(self.gsc.k_theta, self.gsc.k_d,
                             self.msc.k_theta, self.msc.k_d)


def ratio_matched(k_theta_gsc: float, k_d_gsc: float, k_theta_msc: float,
                  k_d_msc: float) -> bool:
    """Whether k_d/k_theta matches between the two converters (1e-9 rel),
    the gain condition of Theorem 1."""
    rg = k_d_gsc / k_theta_gsc
    rm = k_d_msc / k_theta_msc
    scale = max(abs(rg), abs(rm), 1e-30)
    return abs(rg - rm) / scale < 1e-9 or abs(rg - rm) < 1e-12


def pd_filter_realization(k_theta: float, k_d: float, t_dc: float,
                          x: float, u: float) -> tuple[float, float]:
    """First-order realization of H(s) = (k_theta + k_d s)/(t_dc s + 1).

    Returns (y, dx/dt) with dx/dt = (u - x)/t_dc and
    y = (k_theta - k_d/t_dc) x + (k_d/t_dc) u.  t_dc is not checked here:
    ``ControlGains`` holds it positive, and the pure kernel evaluates any
    packed value as the compiled one does.
    """
    y = (k_theta - k_d / t_dc) * x + (k_d / t_dc) * u
    return y, (u - x) / t_dc


def limiter_pi(kp: float, ki: float, err: float, integ: float) -> tuple[float, float]:
    """One-sided (output >= 0) PI with integrator freeze as anti-windup.

    Returns (output, d integ/dt).
    """
    u = kp * err + integ
    di = ki * err
    if u <= 0.0:
        u = 0.0
        if err < 0.0:
            di = ki * err if integ > 0.0 else 0.0
    return u, di


def pitch_rate(beta: float, beta_ref: float, t_servo: float, rate_limit: float,
               beta_min: float, beta_max: float) -> float:
    """d beta/dt of the pitch servo.

    beta_ref is clamped to [beta_min, beta_max] and the first-order servo
    is rate-limited to +-rate_limit, so beta is driven back into the range.
    A zero t_servo divides as in IEEE arithmetic, as the compiled kernel
    does: the rate limit then clamps the infinite rate.
    """
    if beta_ref < beta_min:
        beta_ref = beta_min
    elif beta_ref > beta_max:
        beta_ref = beta_max
    d = ((beta_ref - beta) / t_servo if t_servo
         else (beta_ref - beta) * math.copysign(math.inf, t_servo))
    if d > rate_limit:
        d = rate_limit
    elif d < -rate_limit:
        d = -rate_limit
    return d

