"""Every function defined under src/windgfm is entered by the six CLI
commands, plus the pure-Python kernel, which runs wherever the compiled one
is missing.  A function no command reaches is deleted, or moved next to the
tests that use it; this test keeps the library that size.  The one
exception is listed in BENCHMARK_ONLY: a function the benchmark calls."""
import ast
import sys
from pathlib import Path

import numpy as np

import windgfm
from windgfm import cli
from windgfm._kernel import _ode_py
from windgfm._kernel.layout import ROW
from windgfm.config import DEFAULT_CONFIG, make_plant, make_surface
from windgfm.harness import Scenario, gains_for_scenario
from windgfm.plant import LoadProfile, Mode, find_equilibrium

PKG = Path(windgfm.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# (file, function) that no command calls and the benchmark does: perfbench
# checks the whole text of a trace CSV, which the commands write in blocks.
BENCHMARK_ONLY = {("harness.py", "trace_to_csv")}


def defined_functions() -> dict:
    """(file, first line) -> qualified-ish name of every def in the package.

    A decorated def starts at its first decorator, as its code object does."""
    defs = {}
    for path in sorted(PKG.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno,
                             *(d.lineno for d in node.decorator_list)])
                defs[(str(path), first)] = \
                    f"{path.relative_to(PKG)}:{node.lineno} {node.name}"
    return defs


def run_pure_kernel() -> None:
    """A few hundred pure-kernel steps across a load step, and their rows
    through the pure CSV writer."""
    cfg = DEFAULT_CONFIG
    plant, surface = make_plant(cfg), make_surface(cfg)
    load = LoadProfile(base=2.0, events=((0.1, 0.4),))
    gains = gains_for_scenario(plant, surface, Scenario()).gains
    x0, p_arr, _ = find_equilibrium(plant, gains, surface, 8.0, load,
                                    Mode.GFM_FR)
    rows = _ode_py.simulate(x0, p_arr, Mode.GFM_FR, 5e-4, 400, 100,
                            load.base, load.ev_times, load.ev_steps)
    out = np.frombuffer(rows).reshape(-1, len(ROW))
    assert out.shape == (5, len(ROW))
    assert _ode_py.csv_rows(list(out.T)).count("\n") == 5


def test_every_function_is_reached(tmp_path, capsys):
    d = tmp_path
    commands = [
        ["simulate", "--out", f"{d}/sim.csv", "--plot", f"{d}/sim.svg"],
        ["compare", "--out", f"{d}/cmp.csv", "--plot", f"{d}/cmp.svg"],
        ["deload-table", "--out", f"{d}/deload.csv"],
        ["gain-design"],
        ["droop-map", "--out", f"{d}/map.csv", "--plot", f"{d}/map.svg"],
        ["smallsignal"],
    ]
    codes = set()

    def tracer(frame, event, arg):
        codes.add(frame.f_code)  # 'call' events only: no local tracing

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        rcs = [cli.main(argv) for argv in commands]
        run_pure_kernel()
    finally:
        sys.settrace(previous)
    capsys.readouterr()
    assert rcs == [0] * len(commands)
    entered = {(str(Path(c.co_filename).resolve()), c.co_firstlineno)
               for c in codes if c.co_filename.endswith(".py")}
    defs = defined_functions()
    missed = sorted(name for key, name in defs.items() if key not in entered)
    unlisted = [m for m in missed if (m.partition(":")[0],
                                      m.rpartition(" ")[2]) not in BENCHMARK_ONLY]
    assert not unlisted, f"functions no command reaches: {unlisted}"
    # every listed function is still one no command reaches, and the
    # benchmark still calls it
    assert len(missed) == len(BENCHMARK_ONLY)
    bench = "".join(p.read_text() for p in PERFBENCH.glob("*.py"))
    for file, func in BENCHMARK_ONLY:
        assert f"{file.removesuffix('.py')}.{func}(" in bench
