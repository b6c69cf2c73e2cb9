"""Command-line interface: simulate, compare, deload-table, gain-design,
droop-map, smallsignal."""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import _kernel, curtailment, gaindesign, plotting
from .aero import DesignError
from .config import (
    ConfigError, HarnessAssertionError, apply_overrides, gains_for_scenario,
    load_config, make_design_spec, make_plant, make_surface, make_turbine,
    scenario_from_config,
)
from .plant import PlantError


def _add_arguments(sub, outputs):
    """--config, --set and, of --out and --plot, those in outputs."""
    sub.add_argument("--config", help="scenario JSON file")
    sub.add_argument("--set", dest="sets", action="append", default=[],
                     metavar="KEY=VALUE", help="dotted config override")
    if "--out" in outputs:
        sub.add_argument("--out", help="output file (CSV)")
    if "--plot" in outputs:
        sub.add_argument("--plot", help="optional SVG output path")


def _cfg(args) -> dict:
    return apply_overrides(load_config(args.config), args.sets)


class OutputError(Exception):
    pass


def _write(path: str, parts) -> None:
    """Write the str parts, in order, to the output file path; OutputError
    if it cannot."""
    try:
        with open(path, "w") as fh:
            fh.writelines(parts)
    except OSError as e:
        raise OutputError(f"cannot write {path}: {e.strerror or e}") from e


def cmd_simulate(args) -> int:
    from . import harness
    cfg = _cfg(args)
    res = harness.run_from_config(cfg)
    t_ev = res.scenario.load.events[0][0] if res.scenario.load.events else None
    if args.out:
        _write(args.out, harness.trace_csv(res.trace))
    if t_ev is not None:
        metrics = harness.compute_metrics(res.trace, t_ev,
                                          f_base=cfg["network"]["f_hz"])
        print(harness.metrics_to_json({res.scenario.mode.name: metrics}))
    if args.plot:
        _write(args.plot, (plotting.trace_svg(res.trace),))
    return 0


def cmd_compare(args) -> int:
    from . import harness
    cfg = _cfg(args)
    plant = make_plant(cfg)
    surface = make_surface(cfg)
    base = scenario_from_config(cfg)
    if not base.load.events:
        raise ConfigError("scenario.events must hold a load event to compare "
                          "the modes' responses to")
    stem = args.out[:-4] if args.out and args.out.endswith(".csv") else args.out
    metrics = {}
    # Each run's trace is written as it comes and dropped before the next
    # runs; only GFM_FR's, the last, is kept for the plot.
    for name, res, m in harness.compare_modes(plant, surface, base):
        metrics[name] = m
        if args.out:
            _write(f"{stem}_{name}.csv", harness.trace_csv(res.trace))
        fr_trace = res.trace if name == "GFM_FR" else None
        del res
    print(harness.metrics_to_json(metrics))
    if args.plot:
        _write(args.plot, (plotting.trace_svg(fr_trace),))
    return 0


def cmd_deload_table(args) -> int:
    cfg = _cfg(args)
    table = curtailment.build_table(make_turbine(cfg), make_surface(cfg))
    text = curtailment.table_to_csv(table)
    if args.out:
        _write(args.out, (text,))
    else:
        sys.stdout.write(text)
    return 0


def cmd_gain_design(args) -> int:
    cfg = _cfg(args)
    plant = make_plant(cfg)
    surface = make_surface(cfg)
    d = gains_for_scenario(plant, surface, scenario_from_config(cfg))
    out = {
        "v_w": d.v_w, "eta": d.eta, "status": d.status,
        "m_p": None if math.isinf(d.m_p) else d.m_p,
        "omega_del_pu": d.gains.omega_del,
        "beta_del_deg": d.gains.pitch.beta_del,
        "omega_mpp_pu": d.omega_mpp, "k_wr": d.k_wr, "k_b": d.k_b,
        "k_theta_gsc": d.gains.gsc.k_theta, "k_d_gsc": d.gains.gsc.k_d,
        "k_theta_msc": d.gains.msc.k_theta, "k_d_msc": d.gains.msc.k_d,
        "k_p": d.gains.pitch.k_p,
        "theorem1_ratio_ok": d.gains.theorem1_ratio_ok,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_droop_map(args) -> int:
    cfg = _cfg(args)
    turbine = make_turbine(cfg)
    surface = make_surface(cfg)
    spec = make_design_spec(cfg)
    v_grid = [5.0 + k for k in range(10)]  # numpy.linspace(5, 14, 10)
    eta_grid = [0.7, 0.8, 0.9, 0.95, 1.0]
    m, status = gaindesign.droop_map(turbine, surface, v_grid, eta_grid, spec)
    text = gaindesign.droop_map_to_csv(v_grid, eta_grid, m, status)
    if args.out:
        _write(args.out, (text,))
    else:
        sys.stdout.write(text)
    if args.plot:
        _write(args.plot, (plotting.heatmap_svg(v_grid, eta_grid, m),))
    return 0


def cmd_smallsignal(args) -> int:
    from . import smallsignal
    cfg = _cfg(args)
    plant = make_plant(cfg)
    surface = make_surface(cfg)
    design = gains_for_scenario(plant, surface, scenario_from_config(cfg))
    model = smallsignal.model_from_params(plant, design.gains, design.k_wr,
                                          design.k_b)
    lam, stable = smallsignal.stability_verdict(model)
    print(smallsignal.model_to_json(model, lam, stable))
    rep = smallsignal.lasalle_verify(model)
    print(json.dumps({"lasalle_max_eig_S": rep.max_eig_S,
                      "lasalle_certified": rep.certified,
                      "M_positive_definite": rep.m_positive_definite},
                     indent=2))
    if not stable:
        raise HarnessAssertionError("small-signal model is not stable")
    return 0


# The commands that compute on numpy arrays.  The others run the design chain
# in Python floats, whose non-finite results it rejects itself, and never
# import numpy.
ARRAY_COMMANDS = ("simulate", "compare", "smallsignal")

# Each command with the output flags it reads
COMMANDS = {
    "simulate": (cmd_simulate, ("--out", "--plot")),
    "compare": (cmd_compare, ("--out", "--plot")),
    "deload-table": (cmd_deload_table, ("--out",)),
    "gain-design": (cmd_gain_design, ()),
    "droop-map": (cmd_droop_map, ("--out", "--plot")),
    "smallsignal": (cmd_smallsignal, ()),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="windgfm",
        description="Reduced-order dual-port GFM wind turbine toolkit "
                    f"(kernel backend: {_kernel.BACKEND})")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, outputs) in COMMANDS.items():
        _add_arguments(subs.add_parser(name), outputs)
    args = parser.parse_args(argv)
    try:
        rc = _run(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except BrokenPipeError:
        # fd 1 to /dev/null, so that the flush at exit cannot raise again
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.close(null)
        print("output error: stdout closed", file=sys.stderr)
        return 3
    return rc


def _run(args) -> int:
    """Run the parsed command; its exit code."""
    command, _ = COMMANDS[args.command]
    try:
        if args.command not in ARRAY_COMMANDS:
            return command(args)
        import numpy as np
        # a float overflow or NaN raises, so no inf or NaN reaches an output
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return command(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    except OutputError as e:
        print(f"output error: {e}", file=sys.stderr)
        return 3
    except (HarnessAssertionError, AssertionError) as e:
        print(f"assertion failure: {e}", file=sys.stderr)
        return 2
    except PlantError as e:
        print(f"simulation failure: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # the kernel's rows did not fit in memory
        print(f"simulation failure: {str(e) or 'out of memory'}",
              file=sys.stderr)
        return 2
    except (DesignError, ArithmeticError) as e:
        print(f"design failure: {e!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
