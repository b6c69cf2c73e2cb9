import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import windgfm
from windgfm._kernel import _ode_py
from windgfm._kernel.layout import (
    MODE_GFL_MPPT, N_OUT, N_PARAMS, N_STATES, P_CP0, P_CPMAX, P_PCONST, P_TG,
    ROW, STATES,
)
from windgfm.harness import Scenario, gains_for_scenario, run_scenario
from windgfm.plant import Mode, find_equilibrium

# index of a state in a state vector, and of a column in the kernel's rows
S = {name: k for k, name in enumerate(STATES)}
COL = {name: k for k, name in enumerate(ROW)}


def as_array(rows):
    """A kernel's rows (a bytearray of float64 values) as an (n, len(ROW))
    array."""
    return np.frombuffer(rows).reshape(-1, len(ROW))


def _deriv(x, t, p, cp_coeffs, mode, base, ev_t, ev_dp):
    """The kernel's derivative and outputs at x, under the load at time t."""
    return _ode_py._deriv(x, _ode_py._load(t, base, ev_t, ev_dp), p,
                          cp_coeffs, mode)


def reference_simulate(x0, params, mode, dt, n_steps, stride, base_load,
                       ev_t=(), ev_dp=()):
    """The kernels' RK4 loop with four derivative calls on every step: no
    step is skipped, whether or not its state is a fixed point."""
    x, p, ev_t, ev_dp = _ode_py._inputs(x0, params, ev_t, ev_dp)
    args = (*_ode_py._args(p, mode), float(base_load), ev_t, ev_dp)
    dt = float(dt)
    h2 = 0.5 * dt
    h6 = dt / 6.0
    out = np.empty((1 + n_steps // stride, 1 + N_STATES + N_OUT))
    out[0, 0] = 0.0
    out[0, 1:1 + N_STATES] = x
    row = 1
    for i in range(n_steps):
        t0 = i * dt
        k1 = _deriv(x, t0, *args)
        if i % stride == 0:
            out[i // stride, 1 + N_STATES:] = k1[N_STATES:]
        k2 = _deriv([a + h2 * b for a, b in zip(x, k1)], t0 + h2, *args)
        k3 = _deriv([a + h2 * b for a, b in zip(x, k2)], t0 + h2, *args)
        k4 = _deriv([a + dt * b for a, b in zip(x, k3)], t0 + dt, *args)
        x = [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
        # the rule: a non-finite state first, then the lowest state out of
        # range
        if not all(math.isfinite(v) for v in x):
            raise FloatingPointError(-1, t0 + dt)
        for j in range(N_STATES):
            if abs(x[j]) > 1e6 or (STATES[j] == "omega_r" and x[j] <= 0):
                raise FloatingPointError(j, t0 + dt)
        if (i + 1) % stride == 0:
            out[row, 0] = (i + 1) * dt
            out[row, 1:1 + N_STATES] = x
            row += 1
    if n_steps % stride == 0:
        out[row - 1, 1 + N_STATES:] = _deriv(x, n_steps * dt, *args)[N_STATES:]
    return out[:row]


def equilibrium(plant, surface, sc):
    design = gains_for_scenario(plant, surface, sc)
    x0, p_arr, _ = find_equilibrium(plant, design.gains, surface, sc.v_w,
                                    sc.load, sc.mode)
    return x0, p_arr


@pytest.fixture
def packed(plant, surface):
    return equilibrium(plant, surface, Scenario())


def test_backend_reported():
    assert windgfm.KERNEL_BACKEND in ("cython", "python")


def one_step(kernel, x, p, mode, t):
    """One RK4 step from state x, its load event shifted so that it is on
    exactly when a step at time t would see it: the bytes of the rows (the
    outputs at x, the next state and its outputs), or the failure's
    arguments.  Every stage of the step is a derivative call."""
    try:
        return bytes(kernel.simulate(x, p, mode, 1e-3, 1, 1, 2.0, (30.0 - t,),
                                     (0.4,)))
    except FloatingPointError as e:
        return e.args


def test_derivative_backends_bit_identical(plant, surface, ode_cy):
    # overspeed (8 m/s) and pitched (10, 12 m/s) operating points; the
    # states reach both sides of the pitch range and of both limiters
    rng = np.random.default_rng(5)
    for v_w in (8.0, 10.0, 12.0):
        x0, p_arr = equilibrium(plant, surface, Scenario(v_w=v_w))
        for _ in range(50):
            x = x0 + rng.uniform(-0.05, 0.05, size=N_STATES)
            x[[S["omega_r"], S["beta"], S["i_speed"], S["i_power"]]] += \
                rng.uniform(-1.0, 1.0, size=4) * (0.1, 20, 1, 1)
            t = rng.uniform(0.0, 60.0)
            for mode in (0, 1, 2):
                assert one_step(_ode_py, x, p_arr, mode, t) == \
                    one_step(ode_cy, x, p_arr, mode, t)


def test_simulate_backends_bit_identical(plant, surface, ode_cy):
    for v_w in (8.0, 12.0):
        x0, p_arr = equilibrium(plant, surface, Scenario(v_w=v_w))
        for mode in (0, 1, 2):
            sp = _ode_py.simulate(x0, p_arr, mode, 5e-4, 8000, 2, 2.0,
                                  (2.0,), (0.4,))
            sc = ode_cy.simulate(x0, p_arr, mode, 5e-4, 8000, 2, 2.0,
                                 (2.0,), (0.4,))
            assert type(sp) is type(sc) is bytearray
            assert sp == sc


def test_derivative_bit_identical_on_random_parameter_vectors(ode_cy):
    # every entry drawn on its own, so a parameter index that differs
    # between layout.py and the compiled kernel changes the result; the
    # draws reach both sides of the Cp clamp, the limiters and the pitch
    # range and rate limits
    rng = np.random.default_rng(11)
    bounds = {"rho_1": (-2, 2), "omega_g": (0.9, 1.1), "P_g": (0.5, 2.0),
              "v_dc": (0.8, 1.2), "rho_2": (-2, 2), "omega_r": (0.5, 1.5),
              "x_gsc": (-1, 1), "x_msc": (-1, 1), "beta": (-5, 35),
              "i_speed": (-1, 1), "i_power": (-1, 1)}
    lo, hi = zip(*(bounds[name] for name in STATES))
    for _ in range(200):
        p = rng.uniform(0.5, 2.0, size=N_PARAMS)
        x = rng.uniform(lo, hi)
        t = rng.uniform(0.0, 60.0)
        for mode in (0, 1, 2):
            assert one_step(_ode_py, x, p, mode, t) == \
                one_step(ode_cy, x, p, mode, t)


@pytest.mark.parametrize("n_steps, stride", [(0, 1), (0, 5), (3, 7), (7, 3)])
def test_simulate_sample_counts_match(packed, ode_cy, n_steps, stride):
    x0, p_arr = packed
    args = (x0, p_arr, 2, 5e-4, n_steps, stride, 2.0, (0.0,), (0.4,))
    sp, sc = _ode_py.simulate(*args), ode_cy.simulate(*args)
    assert len(sp) == len(sc) == \
        8 * (1 + n_steps // stride) * (1 + N_STATES + N_OUT)
    assert sp == sc


@pytest.mark.parametrize("n_steps, stride", [(0, 1), (0, 4), (40, 4), (41, 4),
                                              (43, 1)])
@pytest.mark.parametrize("mode", [0, 1, 2])
def test_simulate_outputs_are_those_of_each_row_state(packed, ode_cy, n_steps,
                                                       stride, mode):
    # a row's P_wt, P_gsc and w_gsc are the kernel's outputs at that row's
    # state, whether they come from a step's first RK4 stage or, for a final
    # row at n_steps, from the extra call; the load step at 0.01 s moves
    # every state off the equilibrium
    x0, p_arr = packed
    for kernel in (_ode_py, ode_cy):
        out = as_array(kernel.simulate(x0, p_arr, mode, 5e-4, n_steps,
                                       stride, 2.0, (0.01,), (0.4,)))
        if mode == MODE_GFL_MPPT:
            # the constant injection twice and omega_g; the WT-side states
            # keep x0's bits
            om_g = out[:, COL["omega_g"]]
            assert n_steps < 20 or np.ptp(om_g) > 0
            assert np.all(out[:, COL["P_wt"]] == p_arr[P_PCONST])
            assert np.all(out[:, COL["P_gsc"]] == p_arr[P_PCONST])
            assert out[:, COL["w_gsc"]].tobytes() == om_g.tobytes()
            for name in ("v_dc", "omega_r", "beta"):
                assert out[:, COL[name]].tobytes() == \
                    np.full(len(out), x0[S[name]]).tobytes()
        else:
            assert n_steps < 20 or np.ptp(out[:, 1 + N_STATES]) > 0
        for row in out:
            ref = as_array(kernel.simulate(row[1:1 + N_STATES], p_arr, mode,
                                           5e-4, 0, 1, 2.0, (0.01,), (0.4,)))
            assert row[1 + N_STATES:].tobytes() == \
                ref[0, 1 + N_STATES:].tobytes()


H = 5e-4
# (ev_t, ev_dp) of a run of ODD_STEPS steps of H s, starting at an
# equilibrium: each layout changes which steps see the same three loads
EVENT_LAYOUTS = {
    "none": ((), ()),
    "at_0": ((0.0,), (0.4,)),
    "before_0": ((-1.0,), (0.4,)),
    # only a step's midpoint and end see it (plant.simulate rejects it)
    "half_step": ((20 * H + 0.5 * H,), (0.4,)),
    "same_time": ((0.01, 0.01), (0.4, -0.2)),
    # the load comes back to the bits it had before the first event
    "up_and_down": ((0.01, 0.03), (0.4, -0.4)),
    "after_end": ((1.0,), (0.4,)),
}
ODD_STEPS = 101


def kernel_result(kernel, *args):
    """The bytes of a kernel's rows, or its failure's arguments."""
    try:
        return bytes(kernel(*args))
    except FloatingPointError as e:
        return e.args


@pytest.fixture(params=list(Mode), ids=lambda m: m.name)
def mode_equilibrium(request, plant, surface):
    """(mode, x0, p_arr) at the mode's own 8 m/s equilibrium."""
    x0, p_arr = equilibrium(plant, surface, Scenario(mode=request.param))
    return int(request.param), x0, p_arr


@pytest.mark.parametrize("layout", EVENT_LAYOUTS)
@pytest.mark.parametrize("n_steps, stride", [(ODD_STEPS, 1), (ODD_STEPS, 3),
                                              (ODD_STEPS - 2, 3)])
def test_kernels_equal_the_no_skip_reference(mode_equilibrium, ode_cy, layout,
                                             n_steps, stride):
    mode, x0, p_arr = mode_equilibrium
    args = (x0, p_arr, mode, H, n_steps, stride, 2.0, *EVENT_LAYOUTS[layout])
    ref = reference_simulate(*args).tobytes()
    assert _ode_py.simulate(*args) == ref
    assert ode_cy.simulate(*args) == ref


@pytest.mark.parametrize("layout", ["at_0", "half_step", "same_time"])
def test_kernels_diverge_as_the_no_skip_reference(mode_equilibrium, ode_cy,
                                                  layout):
    # a negative governor time constant: the equilibrium holds until the
    # load moves, then the SG power blows up within a few steps
    mode, x0, p_arr = mode_equilibrium
    bad = p_arr.copy()
    bad[P_TG] = -1e-3
    args = (x0, bad, mode, H, ODD_STEPS, 3, 2.0, *EVENT_LAYOUTS[layout])
    ref = kernel_result(reference_simulate, *args)
    assert ref[0] == S["P_g"]
    assert kernel_result(_ode_py.simulate, *args) == ref
    assert kernel_result(ode_cy.simulate, *args) == ref


def test_steps_before_the_load_step_are_not_integrated(packed, monkeypatch):
    # a 4 s run with its step at 2 s: the step from x0 finds the fixed point,
    # the next 3998 are reused, and every step from the one whose end sees
    # the event on is integrated, plus the final row's derivative call
    x0, p_arr = packed
    n_steps = 8000
    args = (x0, p_arr, 2, H, n_steps, 2, 2.0, (2.0,), (0.4,))
    ref = reference_simulate(*args).tobytes()
    calls = 0
    deriv = _ode_py._deriv

    def counted(*a):
        nonlocal calls
        calls += 1
        return deriv(*a)

    monkeypatch.setattr(_ode_py, "_deriv", counted)
    assert _ode_py.simulate(*args) == ref
    post_step = n_steps - 4000
    assert calls <= 4 * (post_step + 2) + 1


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.name)
def test_equilibrium_is_an_exact_rk4_fixed_point(plant, surface, mode):
    # what the kernels' step reuse and the CSV's constant blocks rely on
    for v_w in range(5, 26, 2):
        sc = Scenario(v_w=float(v_w), mode=mode)
        x0, p_arr = equilibrium(plant, surface, sc)
        out = reference_simulate(x0, p_arr, int(mode), sc.dt, 1, 1,
                                 sc.load.base)
        assert out[1, 1:1 + N_STATES].tobytes() == x0.tobytes(), v_w


@pytest.mark.parametrize("mode, eta, t_fixed", [(Mode.GFM_FR, 0.9, 125.0),
                                                (Mode.GFL_MPPT, 1.0, 60.0)],
                         ids=["GFM_FR", "GFL_MPPT"])
def test_settled_tail_is_a_bit_exact_fixed_point(plant, surface, mode, eta,
                                                 t_fixed):
    # the state holds angle differences, so after the +0.4 pu step at 30 s
    # the settled state repeats bit for bit (from 119.3 s and 56.8 s) and
    # the kernels stop integrating; absolute angles would keep rotating
    sc = Scenario(mode=mode, eta=eta, duration=150.0)
    rows = run_scenario(plant, surface, sc, check=False).states
    tail = rows[rows[:, 0] >= t_fixed, 1:].view("i8")
    assert len(tail) > 1 and np.all(tail == tail[-1])


def test_nan_cp_diverges_on_both_kernels(packed, ode_cy):
    # exp overflows in the Cp surface at beta = -3000 deg: the pure kernel's
    # math raises there, and the compiled one carries the NaN Cp, which the
    # Betz clamp must not turn into finite wind power, into the new state.
    # Both report a non-finite state at the first step.
    x0, p_arr = packed
    x = x0.copy()
    x[S["beta"]] = -3000.0
    for kernel in (_ode_py, ode_cy):
        with pytest.raises(FloatingPointError) as e:
            kernel.simulate(x, p_arr, 2, 5e-4, 4, 1, 2.0)
        assert e.value.args == (-1, 5e-4)


def test_simulate_sampling_layout(packed):
    x0, p_arr = packed
    out = as_array(_ode_py.simulate(x0, p_arr, 2, 1e-3, 100, 10, 2.0, (), ()))
    assert out.shape == (11, len(ROW))
    assert out[0, 0] == 0.0
    np.testing.assert_allclose(out[:, 0], np.arange(11) * 0.01, atol=1e-12)
    np.testing.assert_array_equal(out[0, 1:1 + N_STATES], x0)


def test_repeat_runs_byte_identical(packed):
    x0, p_arr = packed
    a = _ode_py.simulate(x0, p_arr, 2, 5e-4, 4000, 2, 2.0, (1.0,), (0.4,))
    b = _ode_py.simulate(x0, p_arr, 2, 5e-4, 4000, 2, 2.0, (1.0,), (0.4,))
    assert a == b


def test_python_kernel_divergence_guard(packed):
    x0, p_arr = packed
    bad = p_arr.copy()
    bad[P_TG] = -0.01  # unstable governor: exponential blow-up
    with pytest.raises(FloatingPointError) as e:
        _ode_py.simulate(x0, bad, 2, 5e-4, 40000, 2, 2.0, (0.5,), (0.4,))
    j, t = e.value.args
    assert j == S["P_g"] and 0.5 < t < 20.0


def test_compiled_kernel_divergence_guard_matches_python(packed, ode_cy):
    x0, p_arr = packed
    bad = p_arr.copy()
    bad[P_TG] = -0.01
    args = (x0, bad, 2, 5e-4, 40000, 2, 2.0, (0.5,), (0.4,))
    with pytest.raises(FloatingPointError) as ep:
        _ode_py.simulate(*args)
    with pytest.raises(FloatingPointError) as ec:
        ode_cy.simulate(*args)
    assert ec.value.args == ep.value.args
    assert ep.value.args[0] == S["P_g"]


# A step from a state with these entries changed, in GFL_MPPT mode, which
# holds every state but omega_g and P_g: the new state keeps them bit for
# bit.  (changes, the failure's index or None where the step passes)
RULE_CASES = {
    "omega_r_0.0": ({"omega_r": 0.0}, S["omega_r"]),
    "omega_r_-0.0": ({"omega_r": -0.0}, S["omega_r"]),
    "omega_r_-0.5": ({"omega_r": -0.5}, S["omega_r"]),
    "omega_r_5e-324": ({"omega_r": 5e-324}, None),
    "limit_1e6": ({"beta": -1e6, "i_power": 1e6}, None),
    "above_1e6": ({"i_power": 1e6 + 2 ** -32}, S["i_power"]),
    # the lowest index out of range is reported
    "lowest_index": ({"rho_1": 2e6, "omega_r": 0.0, "beta": -2e6}, S["rho_1"]),
    # a non-finite state comes first, whatever its index
    "nan_first": ({"omega_r": 0.0, "i_power": math.nan}, -1),
    "inf_first": ({"rho_1": 2e6, "beta": -math.inf}, -1),
}


@pytest.mark.parametrize("case", list(RULE_CASES))
def test_kernels_apply_one_rule_to_the_new_state(plant, surface, ode_cy,
                                                 case):
    x0, p_arr = equilibrium(plant, surface, Scenario(mode=Mode.GFL_MPPT,
                                                     eta=1.0))
    changes, want = RULE_CASES[case]
    x = x0.copy()
    for name, v in changes.items():
        x[S[name]] = v
    args = (x, p_arr, int(Mode.GFL_MPPT), H, 1, 1, 2.0)
    ref = kernel_result(reference_simulate, *args)
    assert kernel_result(_ode_py.simulate, *args) == ref
    assert kernel_result(ode_cy.simulate, *args) == ref
    if want is None:
        assert as_array(ref)[1, 1 + S["omega_r"]] == x[S["omega_r"]]
    else:
        assert ref == (want, H)


def test_kernels_fail_alike_from_extreme_states(plant, surface, ode_cy):
    # one step from states with up to three entries drawn over the whole
    # float range or from the rule's edges, some with a parameter so drawn
    # too, and from a state off its pitch setpoint with each parameter at
    # each edge: any parameter but the Cp surface's, which the config fixes,
    # t_dc and t_servo at 0.0 and -0.0 among them.  Where the pure kernel's
    # math raises, the compiled one carries inf or NaN into the new state,
    # so the two give the same rows or the same failure
    rng = np.random.default_rng(26)
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e6, -1e6, 3000.0,
             -3000.0, 5e-324]
    free = [k for k in range(N_PARAMS) if not P_CP0 <= k <= P_CPMAX]

    def draw():
        return (rng.choice([-1, 1]) * 10 ** rng.uniform(-320, 308)
                if rng.random() < 0.7 else rng.choice(edges))

    for v_w in (8.0, 12.0):
        x0, p_arr = equilibrium(plant, surface, Scenario(v_w=v_w))
        off = x0.copy()
        off[S["beta"]] += 1.0  # the servo moves: a zero t_servo meets its limit
        cases = []
        for k, v in itertools.product(free, edges):
            p = p_arr.copy()
            p[k] = v
            cases.append((off, p))
        for _ in range(300):
            x, p = x0.copy(), p_arr.copy()
            for j in rng.choice(N_STATES, rng.integers(1, 4), replace=False):
                x[j] = draw()
            if rng.random() < 0.2:
                p[rng.choice(free)] = draw()
            cases.append((x, p))
        for (x, p), mode in itertools.product(cases, (0, 1, 2)):
            args = (x, p, mode, H, 1, 1, 2.0, (0.0,), (0.4,))
            assert kernel_result(_ode_py.simulate, *args) == \
                kernel_result(ode_cy.simulate, *args)


@pytest.mark.parametrize("stride", [1, 7])
def test_kernels_stop_where_the_rotor_speed_reaches_zero(packed, ode_cy,
                                                         stride):
    # a +3 pu load step stalls the rotor: the first step whose new omega_r
    # is <= 0 ends the run, at 4.7115 s after the step
    x0, p_arr = packed
    args = (x0, p_arr, 2, 5e-4, 12000, stride, 2.0, (1.0,), (3.0,))
    ref = kernel_result(reference_simulate, *args)
    assert ref == (S["omega_r"], 11422 * 5e-4 + 5e-4)  # t0 + dt, step 11422
    assert kernel_result(_ode_py.simulate, *args) == ref
    assert kernel_result(ode_cy.simulate, *args) == ref
    # the step before is in range: omega_r is still positive there
    rows = as_array(reference_simulate(*args[:4], 11422, 1, *args[6:]))
    assert 0 < rows[-1, COL["omega_r"]] < 0.02


def bad_inputs(x0, p):
    """simulate's keyword arguments, each with one input the kernels
    reject: a wrong vector length, n_steps < 0 or stride < 1."""
    ok = dict(x0=x0, params=p, mode=2, dt=5e-4, n_steps=4, stride=1,
              base_load=2.0, ev_t=(1.0,), ev_dp=(0.4,))
    return {
        "43_params": {**ok, "params": np.append(p, 0.0)},
        "ev_dp_longer": {**ok, "ev_dp": (0.4, 0.1)},
        "ev_dp_shorter": {**ok, "ev_t": (1.0, 2.0)},
        "10_states": {**ok, "x0": x0[:10]},
        "x0_1x11": {**ok, "x0": x0.reshape(1, -1)},
        "n_steps_-1": {**ok, "n_steps": -1},
        "stride_0": {**ok, "stride": 0},
    }


@pytest.mark.parametrize("case", ["43_params", "ev_dp_longer",
                                  "ev_dp_shorter", "10_states", "x0_1x11",
                                  "n_steps_-1", "stride_0"])
def test_kernels_reject_bad_inputs_alike(packed, ode_cy, case):
    kw = bad_inputs(*packed)[case]
    errors = []
    for kernel in (_ode_py, ode_cy):
        with pytest.raises(ValueError) as e:
            kernel.simulate(**kw)
        errors.append((type(e.value), str(e.value)))
    assert errors[0] == errors[1]


# Both kernels, numpy blocked: rows from tuples, CSV from array('d') columns
WITHOUT_NUMPY = """
import importlib.util, sys
from array import array
sys.modules["numpy"] = None
from windgfm._kernel import _ode_py
spec = importlib.util.spec_from_file_location("windgfm._kernel._ode_cy", SO)
ode_cy = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ode_cy)
args = (X0, P, 2, 5e-4, 400, 3, 2.0, (0.05,), (0.4,))
rows = [k.simulate(*args) for k in (_ode_py, ode_cy)]
assert type(rows[0]) is type(rows[1]) is bytearray and rows[0] == rows[1]
v = memoryview(rows[0]).cast("d")
cols = [array("d", v[j::W]) for j in range(W)]
text = [k.csv_rows(cols) for k in (_ode_py, ode_cy)]
assert text[0] == text[1] and text[0].count("\\n") == len(v) // W
print(len(v) // W)
"""


def test_kernels_run_without_numpy(packed, ode_cy):
    x0, p_arr = packed
    code = (f"SO, X0, P, W = {ode_cy.__file__!r}, {tuple(x0.tolist())!r}, "
            f"{tuple(p_arr.tolist())!r}, {len(ROW)}\n" + WITHOUT_NUMPY)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str(1 + 400 // 3)


def test_pure_python_env_forces_fallback():
    code = ("import os; os.environ['WINDGFM_PURE']='1'; "
            "import windgfm; print(windgfm.KERNEL_BACKEND)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "WINDGFM_PURE": "1"})
    assert out.returncode == 0
    assert out.stdout.strip() == "python"


def test_same_bits_tells_the_sign_of_zero():
    assert _ode_py._same_bits([1.0, 0.0], [1.0, 0.0])
    assert _ode_py._same_bits((-0.0, 2.0), (-0.0, 2.0))
    assert not _ode_py._same_bits([1.0, 0.0], [1.0, -0.0])
    assert not _ode_py._same_bits((1.0,), (1.0 + 2 ** -52,))
