"""Kernel selection: compiled extension if available, pure Python otherwise.

The compiled kernel is the hand-written C extension ``_ode_cy.c``; it mirrors
``_ode_py`` operation for operation, so the two give bit-identical results.
Set WINDGFM_PURE=1 to force the pure-Python kernel.
"""
import os

from . import layout  # noqa: F401

if os.environ.get("WINDGFM_PURE"):
    from . import _ode_py as impl
else:
    try:
        from . import _ode_cy as impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _ode_py as impl

BACKEND = impl.BACKEND
derivative = impl.derivative
simulate = impl.simulate
