import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windgfm import _kernel, aero, cli, harness
from windgfm._kernel import _ode_py
from windgfm._kernel.layout import ROW
from windgfm.control import pd_filter_realization
from windgfm.harness import (
    BLOCK, HarnessAssertionError, Scenario, SimTrace, compute_metrics,
    gains_for_scenario, run_scenario, scenario_from_config, trace_csv,
    trace_to_csv,
)
from windgfm.plant import (
    MAX_STEPS, LoadProfile, Mode, find_equilibrium, simulate,
)


# index of a column in the kernel's rows
COL = {name: k for k, name in enumerate(ROW)}


def synthetic_trace(dt=1e-3, t_end=40.0, t_ev=10.0, nadir=49.644,
                    f_ss=49.724, slope=0.1):
    t = np.arange(0.0, t_end + dt / 2, dt)
    f = np.full_like(t, 50.0)
    t_nadir = t_ev + (50.0 - nadir) / slope
    down = (t >= t_ev) & (t <= t_nadir)
    f[down] = 50.0 - slope * (t[down] - t_ev)
    t_rec = t_nadir + 6.0
    up = (t > t_nadir) & (t <= t_rec)
    f[up] = nadir + (f_ss - nadir) * (t[up] - t_nadir) / 6.0
    f[t > t_rec] = f_ss
    n = t.size
    v_dc = np.where(t >= t_ev, 0.99, 1.0)
    p_wt = np.where(t >= t_ev, 0.75, 0.7)
    zeros = np.zeros(n)
    return SimTrace(t=t, f_g=f, f_gsc=f.copy(), v_dc=v_dc,
                    omega_r=np.full(n, 1.1), beta=zeros, p_wt=p_wt,
                    p_gsc=p_wt.copy(), p_g=np.full(n, 1.3))


def test_metrics_on_synthetic_trace():
    m = compute_metrics(synthetic_trace(), 10.0, f_base=50.0)
    assert m.nadir_hz == pytest.approx(49.644, abs=1e-6)
    assert m.t_nadir_s == pytest.approx(10.0 + 0.356 / 0.1, abs=2e-3)
    assert m.rocof_hz_per_s == pytest.approx(0.1, abs=1e-6)
    assert m.f_ss_hz == pytest.approx(49.724, abs=1e-9)
    assert m.dv_dc_ss_pu == pytest.approx(-0.01, abs=1e-12)
    # droop = -(delta f / f_base) / delta P_wt
    assert m.droop_measured == pytest.approx((50.0 - 49.724) / 50.0 / 0.05,
                                             rel=1e-6)


@pytest.mark.parametrize("dp", [0.0, 5.6e-17, -6.9e-6, 9.9e-5, 1.01e-4])
def test_metrics_droop_null_when_power_step_is_noise(dp):
    tr = synthetic_trace()
    p_wt = np.where(tr.t >= 10.0, 0.7 + dp, 0.7)
    m = compute_metrics(dataclasses.replace(tr, p_wt=p_wt), 10.0, f_base=50.0)
    droop = json.loads(harness.metrics_to_json({"X": m}))["X"]["droop_measured"]
    if abs(dp) < 1e-4:  # pu, the noise floor of the steady-state power step
        assert m.droop_measured is None and droop is None
    else:
        assert droop == pytest.approx((50.0 - 49.724) / 50.0 / dp, rel=1e-6)


def test_metrics_rejects_short_trace():
    tr = synthetic_trace(t_end=11.0)
    with pytest.raises(ValueError):
        compute_metrics(tr, 10.0, f_base=50.0)


def test_metrics_to_dict_fields():
    m = compute_metrics(synthetic_trace(), 10.0, f_base=50.0)
    d = json.loads(harness.metrics_to_json({"X": m}))["X"]
    assert set(d) == {"nadir_hz", "t_nadir_s", "rocof_hz_per_s", "f_ss_hz",
                      "dv_dc_ss_pu", "droop_measured"}


def per_row_csv(trace):
    """Reference writer: one f-string per value, one line per row."""
    cols = [trace.column(c) for c in harness.TRACE_COLUMNS]
    lines = [",".join(harness.TRACE_COLUMNS)]
    lines += [",".join(f"{c[i]:.17g}" for c in cols) for i in range(trace.t.size)]
    return "\n".join(lines) + "\n"


CSV_SPECIALS = [-0.0, 5e-324, 1.7976931348623157e308, 1.0, 0.1]


def assert_same_text(got, want):
    # No bare assert: pytest's diff of two long texts is slow enough to
    # stall Hypothesis's shrinking of a failure.
    if got != want:
        i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                 min(len(got), len(want)))
        lo = max(i - 40, 0)
        pytest.fail(f"first difference at character {i}: "
                    f"{got[lo:i + 40]!r} != {want[lo:i + 40]!r}")


@given(n=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]),
       pool=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                     min_size=1, max_size=16),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_trace_csv_matches_per_row_writer(n, pool, seed):
    values = np.array(CSV_SPECIALS + pool)
    rng = np.random.default_rng(seed)
    cells = values[rng.integers(0, values.size, size=len(harness.TRACE_COLUMNS) * n)]
    cells[:len(CSV_SPECIALS)] = CSV_SPECIALS
    cols = cells.reshape(len(harness.TRACE_COLUMNS), n)
    tr = SimTrace(**{name.lower(): cols[k]
                     for k, name in enumerate(harness.TRACE_COLUMNS)})
    assert_same_text(trace_to_csv(tr), per_row_csv(tr))


def block_runs(rng, n, pool):
    """n values in runs of one value each; run lengths around BLOCK make
    runs start, end and cross block boundaries."""
    lengths = [1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK]
    out, size = [], 0
    while size < n:
        k = int(rng.choice(lengths))
        out.append(np.full(k, pool[rng.integers(0, pool.size)]))
        size += k
    return np.concatenate(out)[:n]


def signed_zero_blocks(rng, n):
    """Only 0.0 and -0.0: equal under ==, but every block holds both bit
    patterns, so no block of this column may be written as constant."""
    col = np.array([0.0, -0.0])[rng.integers(0, 2, size=n)]
    col[0::BLOCK] = 0.0
    col[1::BLOCK] = -0.0
    return col


@given(n=st.sampled_from([1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]),
       pool=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                     min_size=1, max_size=4),
       order=st.permutations(range(len(harness.TRACE_COLUMNS))),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_trace_csv_block_constant_columns_match_per_row_writer(n, pool, order,
                                                               seed):
    rng = np.random.default_rng(seed)
    values = np.array(CSV_SPECIALS + [0.0] + pool)
    # Every example has one column of each kind besides runs.
    makers = [lambda: np.full(n, values[rng.integers(0, values.size)]),
              lambda: signed_zero_blocks(rng, n),
              lambda: np.full(n, -0.0)]
    makers += [lambda: block_runs(rng, n, values)] * (len(order) - len(makers))
    tr = SimTrace(**{name.lower(): makers[order[k]]()
                     for k, name in enumerate(harness.TRACE_COLUMNS)})
    assert_same_text(trace_to_csv(tr), per_row_csv(tr))


@pytest.fixture(params=["python", "compiled"])
def writer(request, monkeypatch):
    """Each CSV writer in turn in place of the session's."""
    mod = (_ode_py if request.param == "python"
           else request.getfixturevalue("ode_cy"))
    monkeypatch.setattr(_kernel, "csv_rows", mod.csv_rows)


def trace_of(columns) -> SimTrace:
    return SimTrace(**{name.lower(): np.asarray(c, dtype=float)
                       for name, c in zip(harness.TRACE_COLUMNS, columns)})


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                               2 * BLOCK + 1])
def test_trace_csv_is_the_header_then_one_part_per_block(writer, n):
    rng = np.random.default_rng(n)
    values = np.array(CSV_SPECIALS + [0.0, 2.5])
    tr = trace_of([block_runs(rng, n, values) if n else []
                   for _ in harness.TRACE_COLUMNS])
    parts = list(trace_csv(tr))
    assert parts[0] == ",".join(harness.TRACE_COLUMNS) + "\n"
    assert [p.count("\n") for p in parts[1:]] == \
        [min(BLOCK, n - i) for i in range(0, n, BLOCK)]
    assert "".join(parts) == trace_to_csv(tr)
    assert_same_text(trace_to_csv(tr), per_row_csv(tr))


@pytest.mark.parametrize("last, first", [(2.5, 2.5), (0.0, -0.0),
                                         (-0.0, 0.0)])
def test_trace_csv_across_a_block_boundary(writer, last, first):
    # the last row of one block and the first of the next: the compiled
    # writer copies a value repeated from the previous row's text, the pure
    # one formats a block-constant column once, and -0.0 == 0.0
    n = 2 * BLOCK
    ramp = np.arange(n) * 0.125
    ramp[BLOCK - 1], ramp[BLOCK] = last, first
    steps = np.where(np.arange(n) < BLOCK, last, first)
    tr = trace_of([ramp, steps] * 4 + [ramp[::-1]])
    assert_same_text(trace_to_csv(tr), per_row_csv(tr))


def test_trace_csv_write_streams(writer, cfg, tmp_path):
    # the default 60 s trace's CSV is 7.7 MB; written a block at a time, it
    # never stands whole in memory, as text or as encoded bytes
    trace = harness.run_from_config(cfg, check=False).trace
    out = tmp_path / "trace.csv"
    tracemalloc.start()
    try:
        cli._write(str(out), trace_csv(trace))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 7e6
    assert peak < 1e6
    assert out.read_text() == trace_to_csv(trace)


def short_run(plant, surface, mode, v_w):
    """Design gains and sampled states of a 2 s run with a load step at 1 s."""
    eta = 0.9 if mode == Mode.GFM_FR else 1.0
    sc = Scenario(mode=mode, v_w=v_w, eta=eta)
    load = LoadProfile(events=((1.0, 0.4),))
    gains = gains_for_scenario(plant, surface, sc).gains
    x0, p_arr, _ = find_equilibrium(plant, gains, surface, v_w, load, mode)
    states = simulate(x0, p_arr, mode, load, 2.0, sc.dt, sc.sample_dt)
    return gains, states


def scalar_p_wt(plant, surface, v_w, states):
    """Reference P_wt: one scalar cp call per sampled row."""
    tb = plant.turbine
    scale = tb.swept_k * v_w ** 3 / tb.P_rated
    lam_c = tb.R * tb.omega_nom / v_w
    return np.array([scale * aero.cp(surface, lam_c * o, b)
                     for o, b in zip(states[:, COL["omega_r"]],
                                     states[:, COL["beta"]])])


@pytest.mark.parametrize("mode", [Mode.GFM_FR, Mode.GFM_MPPT])
@pytest.mark.parametrize("v_w", [8.0, 12.0])
def test_trace_p_wt_bit_identical_to_scalar_cp(plant, surface, mode, v_w):
    gains, states = short_run(plant, surface, mode, v_w)
    tr = harness._trace_from_states(plant.network.f_hz, states)
    assert tr.p_wt.size > 2 * BLOCK
    assert tr.p_wt.tobytes() == scalar_p_wt(plant, surface, v_w,
                                            states).tobytes()


@pytest.mark.parametrize("mode", [Mode.GFM_FR, Mode.GFM_MPPT])
@pytest.mark.parametrize("v_w", [8.0, 12.0])
def test_trace_p_gsc_and_f_gsc_bit_identical_to_scalar_equations(
        plant, surface, mode, v_w):
    gains, states = short_run(plant, surface, mode, v_w)
    tr = harness._trace_from_states(plant.network.f_hz, states)
    b_g, f_base = plant.network.b_g, plant.network.f_hz
    p_gsc, f_gsc = [], []
    cols = [COL[name] for name in ("rho_1", "v_dc", "x_gsc")]
    for rho1, v, xg in states[:, cols].tolist():
        p_gsc.append(b_g * math.sin(rho1))
        y, _ = pd_filter_realization(gains.gsc.k_theta, gains.gsc.k_d,
                                     gains.t_dc, xg, v - 1.0)
        f_gsc.append(f_base * (1.0 + y))
    assert np.ptp(tr.p_gsc) > 0 and np.ptp(tr.f_gsc) > 0
    assert tr.p_gsc.tobytes() == np.array(p_gsc).tobytes()
    assert tr.f_gsc.tobytes() == np.array(f_gsc).tobytes()


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(duration=-1.0)
    for bad in ({"v_w": 0.0}, {"v_w": float("nan")}, {"eta": 0.0},
                {"eta": 1.5}):
        with pytest.raises(ValueError):
            Scenario(**bad)
    with pytest.raises(ValueError):
        Scenario(duration=10.0, load=LoadProfile(events=((30.0, 0.4),)))
    # an event must leave the settled tail after it, judged on the trace's
    # last row: 32 s on a 1.5 ms grid ends at 31.9995 s
    late = LoadProfile(events=((30.0, 0.4),))
    Scenario(duration=30.0 + harness.SETTLE_WINDOW, load=late)
    for bad in ({"duration": 31.0}, {"duration": 32.0, "sample_dt": 1.5e-3}):
        with pytest.raises(ValueError, match="events"):
            Scenario(load=late, **bad)
    # events come in time order; equal times sum into one step
    with pytest.raises(ValueError, match="events must be in time order"):
        Scenario(load=LoadProfile(events=((40.0, 0.1), (30.0, -0.2))))
    Scenario(load=LoadProfile(events=((30.0, 0.4), (30.0, 0.1))))
    # the compiled kernel counts the RK4 steps and the stride in C ints; with
    # no event a 1e7 s sample_dt ran on the pure kernel and raised an
    # OverflowError on the compiled one
    Scenario(duration=MAX_STEPS * 5e-4, dt=5e-4)
    for bad in ({"duration": (MAX_STEPS + 1) * 5e-4}, {"dt": 1e-300}):
        with pytest.raises(ValueError, match="duration / dt"):
            Scenario(**bad)
    with pytest.raises(ValueError, match="sample_dt / dt"):
        Scenario(sample_dt=1e7, load=LoadProfile(events=()))


@pytest.mark.parametrize("duration, dt, sample_dt", [
    (2.0, 5e-4, 1e-3), (1.9995, 5e-4, 1e-3), (59.9995, 5e-4, 1e-3),
    (2.0, 5e-4, 1.5e-3), (2.0, 5e-4, 0.7), (2.0, 3e-4, 3e-4),
    (2.0, 5e-4, 1e-5)])
def test_scenario_t_end_is_the_last_row_time(plant, surface, monkeypatch,
                                             duration, dt, sample_dt):
    # the kernel is asked for whole strides only: at 59.9995 s it ran
    # 119,999 steps, the last one from 59.999 s past the trace's last row,
    # whose failure would still fail the run
    n_steps = []

    def spy(*args):
        n_steps.append(args[4])
        return real(*args)

    real = _kernel.simulate
    monkeypatch.setattr(_kernel, "simulate", spy)
    sc = Scenario(duration=duration, dt=dt, sample_dt=sample_dt,
                  load=LoadProfile(events=()))
    gains = gains_for_scenario(plant, surface, sc).gains
    x0, p_arr, _ = find_equilibrium(plant, gains, surface, sc.v_w, sc.load,
                                    sc.mode)
    states = simulate(x0, p_arr, sc.mode, sc.load, duration, dt, sample_dt)
    assert sc.t_end == states[-1, 0] == n_steps[0] * dt


def test_scenario_from_config(cfg):
    sc = scenario_from_config(cfg)
    assert sc.mode == Mode.GFM_FR
    assert sc.v_w == 8.0 and sc.eta == 0.9
    assert sc.load.events == ((30.0, 0.4),)


def test_gains_for_scenario_dispatch(plant, surface):
    fr = gains_for_scenario(plant, surface, Scenario(mode=Mode.GFM_FR, eta=0.9))
    assert fr.status == "ok"
    mp = gains_for_scenario(plant, surface,
                            Scenario(mode=Mode.GFM_MPPT, eta=1.0))
    assert mp.status == "no-droop"
    # the MPPT modes run the MPPT design whatever the configured eta
    for mode in (Mode.GFM_MPPT, Mode.GFL_MPPT):
        d = gains_for_scenario(plant, surface, Scenario(mode=mode, eta=0.9))
        assert d == mp
        assert d.point.eta == 1.0 and d.gains.k_p == 0.0


def test_short_fr_run_passes_checks(plant, surface):
    sc = Scenario(duration=40.0, load=LoadProfile(events=((10.0, 0.4),)))
    res = run_scenario(plant, surface, sc)
    tr = res.trace
    # event visible: frequency dips, DC voltage dips, rotor decelerates
    assert tr.f_g.min() < 49.9
    assert tr.v_dc.min() < 1.0 - 1e-4
    assert tr.omega_r.min() < res.design.gains.omega_del - 1e-4
    # wind power rises towards the new steady state
    tail = tr.t >= tr.t[-1] - 2.0
    assert tr.p_wt[tail].mean() > res.p_wt0 + 1e-3


def test_gfl_run_trace_is_flat_on_wt_side(plant, surface):
    sc = Scenario(mode=Mode.GFL_MPPT, eta=1.0, duration=40.0,
                  load=LoadProfile(events=((10.0, 0.4),)))
    res = run_scenario(plant, surface, sc)
    tr = res.trace
    assert np.all(tr.v_dc == 1.0)
    assert np.all(tr.omega_r == res.design.gains.omega_del)
    assert np.all(tr.beta == res.design.gains.beta_del)
    assert np.all(tr.p_wt == min(res.p_wt0, 1.0))
    assert np.ptp(tr.p_gsc) == 0.0
    assert tr.f_gsc.tobytes() == tr.f_g.tobytes()
    assert tr.f_g.min() < 49.9


def test_run_checks_flag_drifting_droop(plant, surface):
    sc = Scenario(duration=40.0, load=LoadProfile(events=((10.0, 0.4),)))
    res = run_scenario(plant, surface, sc, check=False)
    import dataclasses
    bad_design = dataclasses.replace(res.design, m_p=res.design.m_p * 2.0)
    bad = dataclasses.replace(res, design=bad_design)
    with pytest.raises(HarnessAssertionError):
        harness.run_checks(bad)


def test_metrics_json_shape():
    m = compute_metrics(synthetic_trace(), 10.0, f_base=50.0)
    import json
    doc = json.loads(harness.metrics_to_json({"GFM_FR": m}))
    assert doc["GFM_FR"]["nadir_hz"] == pytest.approx(49.644, abs=1e-6)
