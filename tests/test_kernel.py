import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import windgfm
from windgfm._kernel import _ode_py
from windgfm.harness import Scenario, gains_for_scenario
from windgfm.plant import find_equilibrium


@pytest.fixture(scope="module")
def ode_cy(tmp_path_factory):
    """The compiled kernel: the built extension if importable, else the
    committed _ode_cy.c compiled with the system C compiler."""
    try:
        from windgfm._kernel import _ode_cy
        return _ode_cy
    except ImportError:
        pass
    cc = shutil.which(os.environ.get("CC", "cc"))
    if cc is None:
        pytest.skip("compiled kernel not built and no C compiler found")
    so = tmp_path_factory.mktemp("kernel") / (
        "_ode_cy" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run([cc, "-O3", "-fPIC", "-shared", "-DNDEBUG", "-w",
                    f"-I{sysconfig.get_paths()['include']}",
                    f"-I{np.get_include()}",
                    str(Path(_ode_py.__file__).with_name("_ode_cy.c")),
                    "-o", str(so)], check=True, capture_output=True)
    spec = importlib.util.spec_from_file_location("windgfm._kernel._ode_cy", so)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def equilibrium(plant, surface, sc):
    design = gains_for_scenario(plant, surface, sc)
    x0, p_arr, op = find_equilibrium(plant, design.gains, surface, sc.v_w,
                                     sc.load, sc.mode)
    return x0, p_arr


@pytest.fixture
def packed(plant, surface):
    return equilibrium(plant, surface, Scenario())


def test_backend_reported():
    assert windgfm.KERNEL_BACKEND in ("cython", "python")


def test_derivative_backends_bit_identical(plant, surface, ode_cy):
    # overspeed (8 m/s) and pitched (10, 12 m/s) operating points; the
    # states reach both sides of the pitch range and of both limiters
    rng = np.random.default_rng(5)
    for v_w in (8.0, 10.0, 12.0):
        x0, p_arr = equilibrium(plant, surface, Scenario(v_w=v_w))
        for _ in range(50):
            x = x0 + rng.uniform(-0.05, 0.05, size=13)
            x[[7, 10, 11, 12]] += rng.uniform(-1.0, 1.0, size=4) * (0.1, 20, 1, 1)
            t = rng.uniform(0.0, 60.0)
            for mode in (0, 1, 2):
                dp = _ode_py.derivative(x, t, p_arr, mode, 2.0, (30.0,), (0.4,))
                dc = ode_cy.derivative(x, t, p_arr, mode, 2.0, (30.0,), (0.4,))
                assert dp.tobytes() == dc.tobytes()


def test_simulate_backends_bit_identical(plant, surface, ode_cy):
    for v_w in (8.0, 12.0):
        x0, p_arr = equilibrium(plant, surface, Scenario(v_w=v_w))
        for mode in (0, 1, 2):
            sp = _ode_py.simulate(x0, p_arr, mode, 5e-4, 8000, 2, 2.0,
                                  (2.0,), (0.4,))
            sc = ode_cy.simulate(x0, p_arr, mode, 5e-4, 8000, 2, 2.0,
                                 (2.0,), (0.4,))
            assert sp.tobytes() == sc.tobytes()


def test_simulate_sampling_layout(packed):
    x0, p_arr = packed
    out = _ode_py.simulate(x0, p_arr, 2, 1e-3, 100, 10, 2.0, (), ())
    assert out.shape == (11, 14)
    assert out[0, 0] == 0.0
    np.testing.assert_allclose(out[:, 0], np.arange(11) * 0.01, atol=1e-12)
    np.testing.assert_array_equal(out[0, 1:], x0)


def test_repeat_runs_byte_identical(packed):
    x0, p_arr = packed
    a = _ode_py.simulate(x0, p_arr, 2, 5e-4, 4000, 2, 2.0, (1.0,), (0.4,))
    b = _ode_py.simulate(x0, p_arr, 2, 5e-4, 4000, 2, 2.0, (1.0,), (0.4,))
    assert a.tobytes() == b.tobytes()


def test_python_kernel_divergence_guard(packed):
    from windgfm._kernel.layout import P_TG
    x0, p_arr = packed
    bad = p_arr.copy()
    bad[P_TG] = -0.01  # unstable governor: exponential blow-up
    with pytest.raises(FloatingPointError):
        _ode_py.simulate(x0, bad, 2, 5e-4, 40000, 2, 2.0, (0.5,), (0.4,))


def test_pure_python_env_forces_fallback():
    code = ("import os; os.environ['WINDGFM_PURE']='1'; "
            "import windgfm; print(windgfm.KERNEL_BACKEND)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "WINDGFM_PURE": "1"})
    assert out.returncode == 0
    assert out.stdout.strip() == "python"
