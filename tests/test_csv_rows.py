"""The two trace CSV writers: the compiled csv_rows formats with exact
integer arithmetic, the pure one with a Python %-format.  Both must write
every value of the rows they are given exactly as '%.17g' % v, and so the
same text."""
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from windgfm._kernel import _ode_py
from windgfm.harness import BLOCK, TRACE_COLUMNS, run_from_config

DMAX = 1.7976931348623157e308


def from_bits(b: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", b))[0]


def to_bits(v: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", v))[0]


def oracle(columns) -> str:
    """One '%.17g' % v per value, one line per row."""
    n = len(columns[0]) if len(columns) else 0
    return "".join(",".join("%.17g" % float(c[i]) for c in columns) + "\n"
                   for i in range(n))


def near_power_of_ten(p: int, ulps: int, sign: float) -> float:
    """10^p, correctly rounded, moved by ulps units in the last place."""
    return sign * from_bits(to_bits(float(f"1e{p}")) + ulps)


VALUES = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(from_bits),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, DMAX, -DMAX,
                     2.2250738585072014e-308, math.inf, -math.inf, math.nan]),
    # 1e-16 and 1e17 bound the integer path; 1e-16 lies just below 10^-16
    st.builds(near_power_of_ten, st.integers(-17, 18), st.integers(-4, 4),
              st.sampled_from([1.0, -1.0])),
    # n 2^-j: among these are exact ties of the 17th digit
    st.builds(math.ldexp, st.integers(-2 ** 53, 2 ** 53), st.integers(-60, 10)),
    st.floats(),
)


@st.composite
def tables(draw):
    """An (n_rows, n_cols) array whose columns are runs of repeated values."""
    n_rows, n_cols = draw(st.integers(0, 40)), draw(st.integers(1, 4))
    cols = []
    for _ in range(n_cols):
        col = []
        while len(col) < n_rows:
            col += [draw(VALUES)] * draw(st.integers(1, 5))
        cols.append(col[:n_rows])
    return np.array(cols, dtype=np.float64).reshape(n_cols, n_rows).T


def power_of_ten_neighbourhoods() -> np.ndarray:
    """Every ±10^p, p = -17 … 18, and its 300 neighbours on each side."""
    col = np.array([near_power_of_ten(p, 0, s) for p in range(-17, 19)
                    for s in (1.0, -1.0)]).view(np.int64)
    return (col[:, None] + np.arange(-300, 301)).reshape(-1, 1).view(np.float64)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=tables(), reverse=st.booleans())
@example(table=np.array([[0.0], [-0.0], [-0.0], [0.0], [0.0]]), reverse=False)
@example(table=np.array([[1234567890123456.25, 0.0001, 9.9999999999999999e-5],
                         [1e-16, 1e17, 99999999999999984.0]]), reverse=False)
@example(table=power_of_ten_neighbourhoods(), reverse=False)
@example(table=np.zeros((0, 3)), reverse=False)
def test_writers_match_percent_17g(ode_cy, table, reverse):
    # columns are strided views into the table, read in place
    rows = table[::-1] if reverse else table
    columns = [rows[:, j] for j in range(rows.shape[1])]
    want = oracle(columns)
    assert _ode_py.csv_rows(columns) == want
    assert ode_cy.csv_rows(columns) == want


def test_compiled_writer_rejects_bad_columns(ode_cy):
    with pytest.raises(ValueError, match="equal length"):
        ode_cy.csv_rows([np.zeros(3), np.zeros(4)])
    with pytest.raises(ValueError):
        ode_cy.csv_rows([np.zeros((2, 2))])


def test_writer_without_int128_matches_the_pure_writer(kernel_without_int128,
                                                       cfg):
    # the fallback of a compiler without unsigned __int128, which a build
    # with one never compiles
    writer = kernel_without_int128
    # the bounds of the integer path, and 1e-14, whose 17 digits carry to
    # 10^17: the double lies just below 10^-14
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-16, -1e-16, 1e17,
                      -1e17, 1e-14, -1e-14])
    columns = [edges, edges[::-1]]
    assert writer.csv_rows(columns) == _ode_py.csv_rows(columns) \
        == oracle(columns)
    # the default trace's block that holds the load step
    trace = run_from_config(cfg).trace
    i = int(np.searchsorted(trace.t, cfg["scenario"]["events"][0][0]))
    i -= i % BLOCK
    columns = [trace.column(c)[i:i + BLOCK] for c in TRACE_COLUMNS]
    assert writer.csv_rows(columns) == _ode_py.csv_rows(columns)
