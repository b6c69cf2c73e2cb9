"""Output checks of the benchmark.

Every check compares an output of windgfm with a quantity computed here,
apart from the code that produced it, or with a property the method must
have.  None compares with a stored copy of an earlier output.  The only
program code used is the Cp surface itself (``aero.cp`` on the default
``CpSurface``), which is the model, not a result.

Each check raises ``CheckError`` with the reason on the first violation.
"""
from __future__ import annotations

import functools
import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np

TRACE_COLUMNS = ("t", "f_g", "f_gsc", "v_dc", "omega_r", "beta",
                 "P_wt", "P_gsc", "P_g")
# Largest expected grid-frequency excursion of the two published design
# presets (control.preset), in pu.
D_OMEGA_MAX = {"table3": 0.01, "fig7": 0.005}
# The closed loop is nonlinear; its measured droop matches the linear design
# to within the tolerance the paper's steady-state analysis is held to.
DROOP_RTOL = 0.02
# Steady-state relations hold to this much plus how far the last 2 s of the
# run still move (the MPPT rotor-tracking mode settles with a ~30 s time
# constant, so its tail is not flat).
STEADY_TOL = 1e-4


class CheckError(AssertionError):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# ----------------------------------------------------------------- oracles

def _cp(lam: float, beta: float) -> float:
    from windgfm.aero import cp
    return cp(_surface(), lam, beta)


@functools.lru_cache(maxsize=1)
def _surface():
    from windgfm.aero import CpSurface
    return CpSurface()


@functools.lru_cache(maxsize=1)
def mpp_scan() -> tuple[float, float]:
    """(lambda_mpp, Cp_max) of Cp(., 0) by a dense two-level grid scan."""
    coarse = np.arange(2.0, 15.0, 1e-3)
    i = int(np.argmax([_cp(x, 0.0) for x in coarse]))
    fine = np.linspace(coarse[max(i - 1, 0)], coarse[min(i + 1, coarse.size - 1)],
                       4001)
    vals = [_cp(x, 0.0) for x in fine]
    j = int(np.argmax(vals))
    return float(fine[j]), float(vals[j])


def swept_k(tb: dict) -> float:
    return 0.5 * tb["rho"] * math.pi * tb["R"] ** 2


def wind_power_pu(tb: dict, v_w: float, omega_pu: float, beta: float) -> float:
    """Per-unit (of P_rated) wind power at rotor speed omega_pu, pitch beta."""
    lam = tb["R"] * omega_pu * tb["omega_nom"] / v_w
    return swept_k(tb) * _cp(lam, beta) * v_w ** 3 / tb["P_rated"]


def deload_target_pu(tb: dict, v_w: float, eta: float) -> float:
    """eta * min(Cp_max k3, P_rated), per unit of P_rated."""
    k3 = swept_k(tb) * v_w ** 3
    return eta * min(mpp_scan()[1] * k3, tb["P_rated"]) / tb["P_rated"]


def sensitivities_fd(tb: dict, v_w: float, omega: float,
                     beta: float) -> tuple[float, float]:
    """(K_omega_r, K_beta) = -dP/domega, -dP/dbeta by central differences."""
    h, hb = 1e-5, 1e-4
    k_wr = -(wind_power_pu(tb, v_w, omega + h, beta)
             - wind_power_pu(tb, v_w, omega - h, beta)) / (2 * h)
    k_b = -(wind_power_pu(tb, v_w, omega, beta + hb)
            - wind_power_pu(tb, v_w, omega, beta - hb)) / (2 * hb)
    return k_wr, k_b


def design_droop(cfg: dict, omega_del: float, beta_del: float) -> dict:
    """Largest-gain design and m_p = k_th,gsc / (k_th,msc (K_wr + K_b K_p))."""
    tb, ctl, v_w = cfg["turbine"], cfg["control"], float(cfg["scenario"]["v_w"])
    d_om = ctl["d_omega_max"] or D_OMEGA_MAX[ctl["preset"]]
    lam_mpp, _ = mpp_scan()
    omega_mpp = lam_mpp * v_w / (tb["R"] * tb["omega_nom"])
    ktg = d_om / ctl["d_v_max"]
    head = omega_del - omega_mpp
    ktm = ktg * head / d_om if head > 1e-9 else ctl["msc_floor"]
    k_p = (ktg / ktm) * beta_del / d_om if beta_del > 1e-12 else 0.0
    k_wr, k_b = sensitivities_fd(tb, v_w, omega_del, beta_del)
    return {"k_theta_gsc": ktg, "k_theta_msc": ktm, "k_p": k_p,
            "k_wr": k_wr, "k_b": k_b, "omega_mpp_pu": omega_mpp,
            "m_p": ktg / (ktm * (k_wr + k_b * k_p))}


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ------------------------------------------------------------------ traces

def parse_trace_csv(text: str) -> dict:
    head, _, body = text.partition("\n")
    require(tuple(head.split(",")) == TRACE_COLUMNS, f"bad trace header {head!r}")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    require(data.shape[1] == len(TRACE_COLUMNS), "bad trace column count")
    return {c: data[:, i] for i, c in enumerate(TRACE_COLUMNS)}


def nadir_hz(tr: dict, t_event: float) -> float:
    return float(tr["f_g"][tr["t"] >= t_event].min())


def check_trace(tr: dict, cfg: dict) -> None:
    """Equilibrium, governor balance, power balance and designed droop."""
    sc, sg, nw, tb = cfg["scenario"], cfg["sg"], cfg["network"], cfg["turbine"]
    mode = sc["mode"]
    (t_ev, d_pl), = sc["events"]
    base = float(sc["base_load"])
    t = tr["t"]
    require(abs(t[-1] - sc["duration"]) < 1e-9, "trace does not span the run")
    require(all(np.all(np.isfinite(tr[c])) for c in TRACE_COLUMNS),
            "non-finite trace value")
    pre = t < t_ev
    tail = t >= t[-1] - 2.0
    om = tr["f_g"] / nw["f_hz"]
    p_g, p_gsc, p_wt = tr["P_g"], tr["P_gsc"], tr["P_wt"]

    # Before the step the plant sits at its equilibrium.
    require(np.abs(om[pre] - 1.0).max() < 1e-9, "grid frequency moves before the step")
    require(np.abs(p_g[pre] + p_gsc[pre] - base).max() < 1e-9,
            "P_g + P_gsc differs from the base load before the step")
    require(abs(p_gsc[0] - p_wt[0]) < 1e-9, "P_gsc differs from P_wt at t = 0")

    # After the step: governor droop and load balance at steady state.
    k_g = sg["rating"] / nw["s_base"] / sg["droop"]
    tol = STEADY_TOL + np.abs(p_g[tail] - p_g[tail].mean()).max()
    d_om = om[tail].mean() - 1.0
    d_pg = p_g[tail].mean() - (base - p_gsc[0])
    require(abs(d_pg + k_g * d_om) < tol,
            f"governor balance: dP_g = {d_pg:.6f}, -k_g dw = {-k_g * d_om:.6f}")
    d_gsc = p_gsc[tail].mean() - p_gsc[0]
    require(abs(d_pg + d_gsc - d_pl) < tol,
            f"power balance: dP_g + dP_gsc = {d_pg + d_gsc:.6f}, load step {d_pl}")

    if mode == "GFL_MPPT":
        require(np.ptp(p_gsc) == 0.0, "GFL injection is not constant")
        return
    v_w = float(sc["v_w"])
    omega_del, beta_del = float(tr["omega_r"][0]), float(tr["beta"][0])
    eta = float(sc["eta"]) if mode == "GFM_FR" else 1.0
    target = deload_target_pu(tb, v_w, eta)
    require(_close(p_wt[0], target, 1e-6),
            f"initial P_wt {p_wt[0]:.9f} is not eta * available = {target:.9f}")
    require(beta_del == 0.0 or abs(omega_del - tb["omega_max"]) < 1e-12,
            "pitched although the rotor is below omega_max")
    if mode == "GFM_FR" and eta < 1.0:
        m_p = design_droop(cfg, omega_del, beta_del)["m_p"]
        m_meas = -d_om / (p_wt[tail].mean() - p_wt[pre].mean())
        require(_close(m_meas, m_p, DROOP_RTOL),
                f"measured droop {m_meas:.5f} vs designed {m_p:.5f}")


def check_nadir_order(nadirs: dict, where: str = "") -> None:
    """FR > GFM_MPPT >= GFL; modes absent from `nadirs` are skipped."""
    fr, mp, gfl = (nadirs.get(k) for k in ("GFM_FR", "GFM_MPPT", "GFL_MPPT"))
    if fr is not None and mp is not None:
        require(fr > mp, f"{where}nadir GFM_FR {fr:.5f} <= GFM_MPPT {mp:.5f}")
    if mp is not None and gfl is not None:
        require(mp >= gfl, f"{where}nadir GFM_MPPT {mp:.5f} < GFL_MPPT {gfl:.5f}")


def check_metrics_json(text: str, nadirs: dict) -> None:
    """The CLI's reported nadirs equal those read from its own traces."""
    rep = json.loads(text)
    require(set(rep) == set(nadirs), f"metrics for {sorted(rep)}, traces {sorted(nadirs)}")
    for mode, n in nadirs.items():
        require(rep[mode]["nadir_hz"] == n,
                f"{mode}: reported nadir {rep[mode]['nadir_hz']} != trace {n}")


def check_svg(text: str, element: str, count: int) -> None:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as e:
        raise CheckError(f"SVG does not parse: {e}") from None
    n = len(root.findall(f"{{http://www.w3.org/2000/svg}}{element}"))
    require(n == count, f"SVG has {n} <{element}> elements, expected {count}")


def check_same_bytes(a: bytes, b: bytes, what: str) -> None:
    if a != b:
        n = min(len(a), len(b))
        i = next((k for k in range(n) if a[k] != b[k]), n)
        raise CheckError(f"{what}: outputs differ from byte {i}")


# ---------------------------------------------------------- design chain

def parse_rows(text: str) -> tuple[list, list]:
    lines = text.strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def check_deload_table(text: str, cfg: dict) -> None:
    """Each row solves P_wt(omega_del, beta_del) = eta min(Cp_max k3, P_rated)."""
    tb = cfg["turbine"]
    head, rows = parse_rows(text)
    require(head == ["v_w", "eta", "lambda_del", "omega_del_pu", "beta_del_deg"],
            f"bad deload-table header {head}")
    require(len(rows) == len({r[0] for r in rows}) * len({r[1] for r in rows}) > 0,
            f"deload table's {len(rows)} rows do not cover a (v_w, eta) grid")
    for r in rows:
        v_w, eta, lam, om, beta = map(float, r)
        where = f"deload row v_w={v_w:g} eta={eta:.2f}"
        require(_close(lam, tb["R"] * om * tb["omega_nom"] / v_w, 1e-12),
                f"{where}: lambda_del does not match omega_del")
        require(om <= tb["omega_max"] + 1e-12, f"{where}: omega_del above omega_max")
        require(beta >= 0.0, f"{where}: negative pitch")
        require(beta == 0.0 or abs(om - tb["omega_max"]) < 1e-12,
                f"{where}: pitch {beta:g} with omega_del {om:.6f} < omega_max")
        p, target = wind_power_pu(tb, v_w, om, beta), deload_target_pu(tb, v_w, eta)
        require(beta == 0.0 or wind_power_pu(tb, v_w, tb["omega_max"], 0.0) > target,
                f"{where}: pitched although overspeed alone reaches the target")
        require(_close(p, target, 1e-7), f"{where}: P_wt {p:.10f} != target {target:.10f}")


def check_droop_map(text: str) -> None:
    """m_p rises with eta in every row and is inf / no-droop at eta = 1."""
    head, rows = parse_rows(text)
    require(head == ["v_w", "eta", "m_p", "status"], f"bad droop-map header {head}")
    require(len(rows) == 50, f"droop map has {len(rows)} rows")
    by_v: dict = {}
    for v, eta, m, status in rows:
        by_v.setdefault(float(v), []).append((float(eta), float(m), status))
    for v, cells in by_v.items():
        cells.sort()
        require(cells[-1][0] == 1.0 and math.isinf(cells[-1][1])
                and cells[-1][2] == "no-droop", f"v_w={v:g}: eta = 1 cell is not inf/no-droop")
        ms = [m for _, m, _ in cells[:-1]]
        require(all(math.isfinite(m) and m > 0 for m in ms)
                and all(s == "ok" for _, _, s in cells[:-1]),
                f"v_w={v:g}: a deloaded cell has no finite droop")
        require(all(a < b for a, b in zip(ms, ms[1:])),
                f"v_w={v:g}: m_p does not rise with eta: {ms}")


def check_gain_design(text: str, cfg: dict) -> dict:
    """The gain set is the largest-gain design at a point that solves the
    deload equation, and its m_p follows the droop formula."""
    d = json.loads(text)
    sc, tb = cfg["scenario"], cfg["turbine"]
    require(d["v_w"] == sc["v_w"] and d["eta"] == sc["eta"], "wrong operating point")
    require(d["status"] == "ok" and d["theorem1_ratio_ok"], f"status {d['status']}")
    om, beta = d["omega_del_pu"], d["beta_del_deg"]
    p = wind_power_pu(tb, sc["v_w"], om, beta)
    target = deload_target_pu(tb, sc["v_w"], sc["eta"])
    require(_close(p, target, 1e-7), f"gain-design point: P_wt {p} != target {target}")
    ref = design_droop(cfg, om, beta)
    for key, rtol in (("k_theta_gsc", 1e-12), ("k_theta_msc", 1e-6), ("k_p", 1e-6),
                      ("omega_mpp_pu", 1e-6), ("k_wr", 1e-5), ("m_p", 1e-5)):
        require(_close(d[key], ref[key], rtol) or d[key] == ref[key] == 0.0,
                f"gain-design {key} = {d[key]}, expected {ref[key]}")
    require(_close(d["k_d_msc"] / d["k_theta_msc"], d["k_d_gsc"] / d["k_theta_gsc"], 1e-9),
            "derivative-to-proportional ratios differ between converters")
    return d


def check_smallsignal(text: str, gains: dict) -> None:
    """Spectrum recomputed from the printed T and A; certificate reported."""
    dec = json.JSONDecoder()
    model, end = dec.raw_decode(text)
    cert, _ = dec.raw_decode(text[end:].lstrip())
    T, A = np.array(model["T"]), np.array(model["A"])
    lam = np.linalg.eigvals(np.linalg.solve(T, A))
    require(lam.real.max() < -1e-9 and model["stable"], "small-signal model is not stable")
    key = (lambda z: (z.real, z.imag))
    got = sorted((complex(*z) for z in model["eigenvalues"]), key=key)
    want = sorted((complex(z) for z in lam), key=key)
    require(all(abs(a - b) <= 1e-9 * max(1.0, abs(b)) for a, b in zip(got, want)),
            "reported eigenvalues differ from the spectrum of T^-1 A")
    require(A[0, 4] == gains["k_theta_gsc"] and A[1, 4] == gains["k_theta_msc"],
            "A does not carry the designed converter gains")
    require(_close(-A[3, 3], gains["k_wr"] + gains["k_b"] * gains["k_p"], 1e-12),
            "A does not carry the designed rotor stiffness")
    require(cert["lasalle_certified"] and cert["M_positive_definite"],
            "LaSalle certificate not established")
