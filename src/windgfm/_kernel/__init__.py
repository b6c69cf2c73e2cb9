"""Kernel selection: compiled extension if available, pure Python otherwise.

The compiled kernel is the hand-written C extension ``_ode_cy.c``; it exports
``simulate``, ``csv_rows`` and ``BACKEND`` only, and mirrors ``_ode_py``.
Both kernels keep one contract:

- ``simulate(x0, params, mode, dt, n_steps, stride, base_load, ev_t=(),
  ev_dp=())`` reads its four vectors as sequences of numbers (tuples,
  lists, numpy arrays, ``array('d')``) and returns its 1 + n_steps // stride
  rows as one ``bytearray`` of float64 values in ``layout.ROW`` order.  As
  step i with i % stride == 0 begins, row i // stride gets (i * dt, the
  state, the outputs of k1 at it) in one write; where n_steps % stride ==
  0 the last row gets the same write after the loop, from one more
  derivative call.  ``plant.sample_grid`` asks for whole strides only, so
  no run integrates a step its rows do not record.  The two kernels give
  the same bytes, or the same failure, for any value of any parameter
  outside the Cp surface, which the config fixes.  Neither
  checks a parameter's value: the records that pack them own that (t_dc >
  0 in ``ControlGains``).  Wrong lengths, ``n_steps < 0`` and
  ``stride < 1`` raise the same ``ValueError`` in both.
  ``plant.simulate`` is the one place that turns the rows into an array.
- A run fails at the first integrated step whose new state leaves the
  model: ``FloatingPointError(index, t)``, t the step's end, the same
  arguments in both kernels.  index is -1 where any new state is not
  finite; otherwise it is the lowest ``layout.STATES`` index out of range,
  |x| > 1e6 or, for ``omega_r``, x <= 0: the model's one rule for a valid
  state.  A math error in a pure-kernel stage is where C carries inf or NaN
  into the new state, so it reports -1.
  ``plant.simulate`` words the one message, naming the state.
- The row rule: a row is written only from a finite state and a finite
  derivative call, all 11 derivatives and 3 outputs of it.  A row written
  as a step begins keeps it through the state rule: a non-finite state or
  first stage makes the new state non-finite.  Where the last row's
  post-loop call, or the state it is made at (x0 where n_steps == 0), is
  not finite, the run fails with ``FloatingPointError(-1, n_steps * dt +
  dt)``, the end of the step that would leave the row, as a mid-run row
  whose first stage is not finite does.  A math error in that pure-kernel
  call counts as a non-finite value, as in a stage.  So every row either
  kernel returns is finite, and no caller checks it again.
- ``csv_rows(columns)`` reads equal-length 1-D float64 buffers, strided or
  not, and writes exactly their rows, with no header: ``harness.trace_csv``
  yields the header and then one ``csv_rows`` per block of
  ``harness.BLOCK`` rows, so a trace CSV is never built whole.  The two
  writers give the same text.

Both kernels need only the standard library, and the extension builds
against Python's headers alone.  Set WINDGFM_PURE=1 to force the pure-Python
kernel and writer.  ``derivative`` is always the pure-Python reference, a
list, and the package's one entry to the closed-loop derivative: the
equilibrium check calls it once per run.
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
