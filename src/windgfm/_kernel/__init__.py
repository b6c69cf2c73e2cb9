"""Kernel selection: compiled extension if available, pure Python otherwise.

The compiled kernel is the hand-written C extension ``_ode_cy.c``; it exports
``simulate``, ``csv_rows`` and ``BACKEND`` only, and mirrors ``_ode_py``.
Both kernels keep one contract:

- ``simulate(x0, params, mode, dt, n_steps, stride, base_load, ev_t=(),
  ev_dp=())`` reads its four vectors as sequences of numbers (tuples,
  lists, numpy arrays, ``array('d')``) and returns its 1 + n_steps // stride
  rows as one ``bytearray`` of float64 values in ``layout.ROW`` order; the
  two kernels' bytes are identical.  Wrong lengths, ``n_steps < 0`` and
  ``stride < 1`` raise the same ``ValueError`` in both.
  ``plant.simulate`` is the one place that turns the rows into an array.
- ``csv_rows(columns)`` reads equal-length 1-D float64 buffers, strided or
  not, and writes exactly their rows, with no header: ``harness.trace_csv``
  yields the header and then one ``csv_rows`` per block of
  ``harness.BLOCK`` rows, so a trace CSV is never built whole.  The two
  writers give the same text.

Both kernels need only the standard library, and the extension builds
against Python's headers alone.  Set WINDGFM_PURE=1 to force the pure-Python
kernel and writer.  ``derivative`` is always the pure-Python reference, a
list; the equilibrium check calls it once per run.
"""
import os

from . import layout  # noqa: F401
from ._ode_py import derivative  # noqa: F401

if os.environ.get("WINDGFM_PURE"):
    from . import _ode_py as impl
else:
    try:
        from . import _ode_cy as impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _ode_py as impl

BACKEND = impl.BACKEND
simulate = impl.simulate
csv_rows = impl.csv_rows
