"""Kernel selection: compiled extension if available, pure Python otherwise.

The compiled kernel is the hand-written C extension ``_ode_cy.c``; it exports
``simulate``, ``csv_rows`` and ``BACKEND`` only, and mirrors ``_ode_py``:
the two ``simulate`` give bit-identical rows and the two ``csv_rows`` the
same text.  ``csv_rows(columns)`` writes exactly the rows of the columns it
is given, with no header: ``harness.trace_csv`` yields the header and then
one ``csv_rows`` per block of ``harness.BLOCK`` rows, so a trace CSV is
never built whole.  Set WINDGFM_PURE=1 to force the pure-Python kernel and
writer.
``derivative`` is always the pure-Python reference; the equilibrium check
calls it once per run.
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
