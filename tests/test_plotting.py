import re

import numpy as np
import pytest

from windgfm import harness, plotting
from windgfm.harness import Scenario, SimTrace, run_scenario

PANELS = [("f_g", "f_gsc"), ("v_dc",), ("omega_r", "beta"),
          ("P_wt", "P_gsc", "P_g")]


def per_point_polylines(trace):
    """Reference polyline points of trace_svg's default panels: one
    f-string per point, through scalar x_of and y_of."""
    t = trace.t
    out = []
    for i, cols in enumerate(PANELS):
        y0 = i * plotting._H
        series = [trace.column(c) for c in cols]
        ys = np.concatenate(series)
        lo, hi = float(ys.min()), float(ys.max())
        if hi - lo < 1e-12:
            lo, hi = lo - 1.0, hi + 1.0
        pad = 0.05 * (hi - lo)
        lo, hi = lo - pad, hi + pad
        x_of = lambda x: plotting._ML + (x - t[0]) / (t[-1] - t[0]) * (
            plotting._W - plotting._ML - plotting._MR)
        y_of = lambda y: y0 + plotting._MT + (hi - y) / (hi - lo) * (
            plotting._H - plotting._MT - plotting._MB)
        for y in series:
            step = max(len(t) // 2000, 1)
            out.append(" ".join(f"{x_of(t[i]):.2f},{y_of(y[i]):.2f}"
                                for i in range(0, len(t), step)))
    return out


def random_trace(n):
    """n samples 1 ms apart, as a run writes them; random columns but for
    one flat series and one flat panel."""
    rng = np.random.default_rng(n)
    cols = {name.lower(): rng.normal(size=n) for name in harness.TRACE_COLUMNS}
    cols["t"] = np.arange(n) * 1e-3
    cols["beta"] = np.zeros(n)
    cols["v_dc"] = np.full(n, -0.0)
    return SimTrace(**cols)


def default_run(plant, surface):
    return run_scenario(plant, surface, Scenario(), check=False).trace


@pytest.mark.parametrize("make", [
    pytest.param(default_run, id="default-run"),
    *[pytest.param(lambda p, s, n=n: random_trace(n), id=f"n{n}")
      for n in (2, 1999, 4001, 6001, 9_001)]])
def test_trace_svg_matches_per_point_writer(plant, surface, make):
    tr = make(plant, surface)
    svg = plotting.trace_svg(tr)
    got = re.findall(r'<polyline points="([^"]*)"', svg)
    want = per_point_polylines(tr)
    assert len(got) == len(want) == 8
    for g, w in zip(got, want):
        assert g == w
