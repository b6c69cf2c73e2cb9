import copy
import importlib.util
import os
import shutil
import subprocess
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import windgfm
from windgfm import _kernel
from windgfm._kernel import _ode_py
from windgfm.config import DEFAULT_CONFIG, make_plant, make_surface
from windgfm.aero import CpSurface, TurbineParams

KERNEL_C = Path(_kernel.__file__).with_name("_ode_cy.c")
CFLAGS = ["-O3", "-fPIC", "-shared", "-DNDEBUG", "-ffp-contract=off"]
NO_CC = "no C compiler found"


def compile_kernel(out_dir: Path, *flags):
    """(module, None) of _ode_cy.c compiled with the system C compiler and
    the extra flags into out_dir (never under src/), or (None, why not)."""
    cc = shutil.which(os.environ.get("CC", "cc"))
    if cc is None:
        return None, NO_CC
    so = out_dir / ("_ode_cy" + sysconfig.get_config_var("EXT_SUFFIX"))
    proc = subprocess.run([cc, *CFLAGS, *flags,
                           f"-I{sysconfig.get_paths()['include']}",
                           f"-I{np.get_include()}", str(KERNEL_C), "-o", str(so)],
                          capture_output=True, text=True)
    if proc.returncode:
        return None, f"compiling {KERNEL_C.name} failed:\n{proc.stderr}"
    spec = importlib.util.spec_from_file_location("windgfm._kernel._ode_cy", so)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod, None


def compiled_or_skip(mod, why):
    """mod; the test skips where no C compiler is found and fails where
    the build failed."""
    if why == NO_CC:
        pytest.skip(why)
    if mod is None:
        pytest.fail(why, pytrace=False)
    return mod


@pytest.fixture(scope="session")
def kernel_build(tmp_path_factory):
    """(compiled kernel module, None) or (None, why it is missing).

    The built extension if one is installed, else _ode_cy.c compiled into
    a temp dir."""
    if _kernel.impl is not _ode_py:
        return _kernel.impl, None
    return compile_kernel(tmp_path_factory.mktemp("kernel"))


@pytest.fixture(scope="session")
def kernel_without_int128(tmp_path_factory):
    """_ode_cy.c compiled as for a C compiler without unsigned __int128: its
    CSV writer formats every value with PyOS_double_to_string."""
    return compiled_or_skip(*compile_kernel(
        tmp_path_factory.mktemp("kernel_without_int128"),
        "-U__SIZEOF_INT128__"))


@pytest.fixture(scope="session", autouse=True)
def session_kernel(kernel_build):
    """Run the session on the compiled kernel; without one (or with
    WINDGFM_PURE set) on the pure-Python kernel."""
    mod, _ = kernel_build
    if mod is None or os.environ.get("WINDGFM_PURE"):
        yield
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "impl", mod)
        for name in ("BACKEND", "simulate", "csv_rows"):
            mp.setattr(_kernel, name, getattr(mod, name))
        mp.setattr(windgfm, "KERNEL_BACKEND", mod.BACKEND)
        yield


@pytest.fixture
def ode_cy(kernel_build):
    """The compiled kernel, for comparisons with the pure one."""
    return compiled_or_skip(*kernel_build)


@pytest.fixture
def cfg():
    return copy.deepcopy(DEFAULT_CONFIG)


@pytest.fixture
def plant(cfg):
    return make_plant(cfg)


@pytest.fixture
def surface():
    return CpSurface()


@pytest.fixture
def turbine():
    return TurbineParams()
