"""Pure-Python reference kernel: closed-loop derivative and RK4 integrator.

The derivative wires together the model equations defined once in ``aero``
and ``control``.  State and parameters are handled as lists of Python
floats, which the scalar equations evaluate fastest.

The derivative sees time only through the load sum ``_load(t)``, so one RK4
step is a pure function of the state and of its three loads, at t0, t0 + h/2
and t0 + h.  When a step returns its state unchanged bit for bit, that state
is a fixed point under those three loads: every later step whose loads have
the same bits returns the same state and the same outputs, so ``simulate``
reuses them instead of making the step's four derivative calls.  Before a
load event the equilibrium is such a fixed point, so a run integrates only
from its first event on, and its rows are those of the full integration bit
for bit.  The state holds angle differences, not angles, so the settled
tail after a load step can be such a fixed point too.

``csv_rows`` is the pure trace CSV writer: it formats exactly the rows it is
given, with no header.  ``harness.trace_csv`` cuts a trace into blocks of
``harness.BLOCK`` rows and calls it once per block, as it does the compiled
writer.

Like the compiled kernel, the module reads its vectors as sequences of
numbers and returns its rows as one bytearray of float64 values (see the
package docstring).
"""
from __future__ import annotations

import math
from array import array
from itertools import chain

from ..aero import _cp_calibrated
from ..control import limiter_pi, pd_filter_realization, pitch_rate
from .layout import (
    MODE_GFL_MPPT, N_OUT, N_PARAMS, N_STATES, ROW,
    P_BETADEL, P_BETAMAX, P_BETAMIN, P_BG, P_BM, P_CDC, P_CP0, P_CPMAX,
    P_JG, P_JWT, P_KDG, P_KDM, P_KG, P_KILIM, P_KP, P_KPLIM, P_KTG, P_KTM,
    P_LAMC, P_OMDEL, P_OMMAX, P_PCONST, P_PG0, P_PMAX, P_PSCALE, P_RATE,
    P_TDC, P_TG, P_TSERVO,
)

BACKEND = "python"


def _load(t, base, ev_t, ev_dp):
    """The load (pu) at time t: base plus every event at or before t."""
    pl = base
    for k in range(len(ev_t)):
        if t >= ev_t[k]:
            pl += ev_dp[k]
    return pl


def _same_bits(a, b) -> bool:
    """Whether two float sequences have the same bits: == holds and no zero
    differs in sign (== takes -0.0 for 0.0)."""
    return a == b and all(u or math.copysign(1.0, u) == math.copysign(1.0, v)
                          for u, v in zip(a, b))


def _deriv(x, pl, p, cp_coeffs, mode):
    """The N_STATES derivatives, then the N_OUT outputs at x, under load pl."""
    rho1, om_g, p_g, vdc, rho2, om_r, xg, xm, beta, isp, ipw = x
    if mode == MODE_GFL_MPPT:
        # the WT side, rho_1 with it, is held; no output reads it
        return [0.0,
                (p_g + p[P_PCONST] - pl) / (p[P_JG] * om_g),
                (-(p_g - p[P_PG0]) - p[P_KG] * (om_g - 1.0)) / p[P_TG],
                0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                p[P_PCONST], p[P_PCONST], om_g]
    u = vdc - 1.0
    yg, dxg = pd_filter_realization(p[P_KTG], p[P_KDG], p[P_TDC], xg, u)
    ym, dxm = pd_filter_realization(p[P_KTM], p[P_KDM], p[P_TDC], xm, u)
    p_pmsg = p[P_BM] * math.sin(rho2)
    p_gsc = p[P_BG] * math.sin(rho1)
    p_wt = p[P_PSCALE] * _cp_calibrated(p[P_LAMC] * om_r, beta, cp_coeffs,
                                        p[P_CPMAX])
    u_sp, disp = limiter_pi(p[P_KPLIM], p[P_KILIM], om_r - p[P_OMMAX], isp)
    u_pw, dipw = limiter_pi(p[P_KPLIM], p[P_KILIM], p_pmsg - p[P_PMAX], ipw)
    bref = p[P_BETADEL] + p[P_KP] * (om_r - p[P_OMDEL]) + u_sp + u_pw
    dbeta = pitch_rate(beta, bref, p[P_TSERVO], p[P_RATE], p[P_BETAMIN],
                       p[P_BETAMAX])
    w_gsc = 1.0 + yg
    return [w_gsc - om_g,
            (p_g + p_gsc - pl) / (p[P_JG] * om_g),
            (-(p_g - p[P_PG0]) - p[P_KG] * (om_g - 1.0)) / p[P_TG],
            (p_pmsg - p_gsc) / (p[P_CDC] * vdc),
            om_r - (p[P_OMDEL] + ym),
            (p_wt - p_pmsg) / (p[P_JWT] * om_r),
            dxg, dxm, dbeta, disp, dipw,
            p_wt, p_gsc, w_gsc]


def _inputs(x, params, ev_t, ev_dp) -> list:
    """The state, the parameters and the load events as lists of floats.
    Raises the compiled kernel's ValueError where their lengths do not fit."""
    vecs = [list(a) for a in (x, params, ev_t, ev_dp)]
    if (len(vecs[0]) != N_STATES or len(vecs[1]) != N_PARAMS
            or len(vecs[3]) != len(vecs[2])):
        raise ValueError(f"expected {N_STATES} states, {N_PARAMS} parameters "
                         "and one ev_dp per ev_t")
    return [[float(v) for v in a] for a in vecs]


def _args(p, mode) -> tuple:
    """The arguments of _deriv after (x, pl), from the parameter list p."""
    return p, p[P_CP0:P_CP0 + 14], int(mode)


def derivative(x, t, params, mode, base_load, ev_t=(), ev_dp=()) -> list:
    """d state/dt in layout.STATES order."""
    x, p, ev_t, ev_dp = _inputs(x, params, ev_t, ev_dp)
    pl = _load(float(t), float(base_load), ev_t, ev_dp)
    return _deriv(x, pl, *_args(p, mode))[:N_STATES]


def _check_states(x, t) -> None:
    """Raise FloatingPointError naming the first state of x beyond 1e6 in
    magnitude or NaN, as diverged at time t."""
    for j in range(N_STATES):
        if not abs(x[j]) <= 1e6:  # also catches NaN
            raise FloatingPointError(f"state {j} diverged at t={t:.6f}")


def simulate(x0, params, mode, dt, n_steps, stride, base_load, ev_t=(), ev_dp=()):
    """Fixed-step RK4 over n_steps; records every `stride` steps (plus t=0).

    Returns the 1 + n_steps // stride rows of layout.ROW as one bytearray
    of float64 values: time, the states and their outputs, from the first
    RK4 stage of the step that leaves the row (a final row at n_steps takes
    one more derivative call).  A step from a fixed point under the same
    three loads is not integrated again (see the module docstring).  Raises
    FloatingPointError on divergence (any |state| > 1e6), also where a
    stage's math raises.
    """
    if n_steps < 0 or stride < 1:
        raise ValueError("n_steps must be >= 0 and stride >= 1")
    x, p, ev_t, ev_dp = _inputs(x0, params, ev_t, ev_dp)
    args = _args(p, mode)
    ev = (float(base_load), ev_t, ev_dp)
    dt = float(dt)
    h2 = 0.5 * dt
    h6 = dt / 6.0
    w = len(ROW)
    rows = bytearray(8 * w * (1 + n_steps // stride))  # t = 0 is zeroed
    out = memoryview(rows).cast("d")
    out[1:1 + N_STATES] = array("d", x)
    row = w  # where the next row starts in out
    fixed = None  # the loads under which x is a fixed point of the step
    for i in range(n_steps):
        t0 = i * dt
        loads = (_load(t0, *ev), _load(t0 + h2, *ev), _load(t0 + dt, *ev))
        if fixed is None or not _same_bits(loads, fixed):
            xs = x  # the input of the stage being evaluated
            try:
                k1 = _deriv(xs, loads[0], *args)
                xs = [a + h2 * b for a, b in zip(x, k1)]
                k2 = _deriv(xs, loads[1], *args)
                xs = [a + h2 * b for a, b in zip(x, k2)]
                k3 = _deriv(xs, loads[1], *args)
                xs = [a + dt * b for a, b in zip(x, k3)]
                k4 = _deriv(xs, loads[2], *args)
            except (ValueError, OverflowError, ZeroDivisionError) as e:
                # math raises where C carries inf or NaN on to the step's
                # check.  A state already past the bound in this stage's
                # input is past it in C's new state too.
                _check_states(xs, t0 + dt)
                raise FloatingPointError(
                    f"RK4 stage diverged at t={t0 + dt:.6f}: {e}") from e
            xn = [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
            _check_states(xn, t0 + dt)
            fixed = loads if _same_bits(xn, x) else None
            x = xn
        if i % stride == 0:
            at = i // stride * w + 1 + N_STATES
            out[at:at + N_OUT] = array("d", k1[N_STATES:])
        if (i + 1) % stride == 0:
            out[row] = (i + 1) * dt
            out[row + 1:row + 1 + N_STATES] = array("d", x)
            row += w
    if n_steps % stride == 0:
        out[row - N_OUT:row] = array("d", _deriv(x, _load(n_steps * dt, *ev),
                                                 *args)[N_STATES:])
    out.release()
    return rows


def csv_rows(columns) -> str:
    """The CSV rows of equal-length 1-D float64 columns (any buffer, strided
    or not), no header: every value written with %.17g, so it reads back bit
    for bit.  The rows are one %-format of a flat tuple of the varying
    columns; a column whose bits are constant over the rows is formatted
    once, into the row template.
    """
    cols = [memoryview(c) for c in columns]
    if any(c.ndim != 1 or c.format != "d" or len(c) != len(cols[0])
           for c in cols):
        raise ValueError("csv_rows expects 1-D float64 columns of equal "
                         "length")
    n = len(cols[0]) if cols else 0
    if not n:
        return ""
    fields, varying = [], []
    for c in cols:
        if c.tobytes() == c[:1].tobytes() * n:  # the same bits on every row
            fields.append("%.17g" % c[0])
        else:
            fields.append("%.17g")
            varying.append(c.tolist())
    rows = (",".join(fields) + "\n") * n
    if varying:
        rows %= tuple(chain.from_iterable(zip(*varying)))
    return rows
