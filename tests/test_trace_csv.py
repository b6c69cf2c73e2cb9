"""The CSV reader oracle: it reads a trace CSV back into a SimTrace, so
tests can check that trace_to_csv writes every value bit for bit."""
import numpy as np
import pytest

from windgfm.harness import TRACE_COLUMNS, SimTrace, trace_to_csv

from test_harness import synthetic_trace


def trace_from_csv(text: str) -> SimTrace:
    lines = text.strip().split("\n")
    if lines[0].split(",") != list(TRACE_COLUMNS):
        raise ValueError("unexpected CSV header")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    kw = {name.lower(): data[:, i] for i, name in enumerate(TRACE_COLUMNS)}
    return SimTrace(**kw)


def test_trace_csv_round_trip_exact():
    tr = synthetic_trace(dt=0.01, t_end=15.0)
    back = trace_from_csv(trace_to_csv(tr))
    for name in TRACE_COLUMNS:
        np.testing.assert_array_equal(tr.column(name), back.column(name))


def test_trace_csv_header_checked():
    with pytest.raises(ValueError):
        trace_from_csv("a,b,c\n1,2,3\n")
