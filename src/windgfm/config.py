"""Scenario configuration: JSON schema, defaults, dotted --set overrides,
the Scenario a config describes and the design rule that serves it."""
from __future__ import annotations

import copy
import json
import re
import sys
from dataclasses import dataclass, fields

from .aero import CpSurface, TurbineParams, require_positive
from .gaindesign import PRESETS, DesignSpec, GainDesign, design_gains, mppt_gains
from .plant import (
    MAX_STEPS, LoadProfile, Mode, NetworkParams, PlantParams, SgParams,
    sample_grid,
)

# The last SETTLE_WINDOW seconds of a run's trace are its settled tail: the
# steady state that run_checks and compute_metrics judge.  A load event must
# come before it.
SETTLE_WINDOW = 2.0


class ConfigError(ValueError):
    pass


class HarnessAssertionError(AssertionError):
    pass


def load_config(path: str | None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            user = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(user, dict):
        raise ConfigError("config root must be an object")
    for key, val in user.items():
        if key not in cfg:
            raise ConfigError(f"unknown top-level key {key!r}")
        if not isinstance(val, dict):
            raise ConfigError(f"section {key!r} must be an object")
        for k2, v2 in val.items():
            if k2 not in cfg[key]:
                raise ConfigError(f"unknown key {key}.{k2}")
            cfg[key][k2] = v2
    return cfg


def apply_overrides(cfg: dict, sets: list[str]) -> dict:
    """Apply `--set section.key=value` overrides (values parsed as JSON)."""
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"bad override {item!r}, expected key=value")
        key, _, raw = item.partition("=")
        parts = key.split(".")
        if len(parts) != 2 or parts[0] not in cfg or parts[1] not in cfg[parts[0]]:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw  # bare strings allowed, e.g. mode=GFM_FR
        cfg[parts[0]][parts[1]] = val
    return cfg


def _finite(x) -> bool:
    """Whether x is an int or float with a finite float value (a bool is not
    a number here)."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def section(cfg: dict, name: str) -> dict:
    """A copy of cfg[name] whose values have the kind of their defaults:
    finite numbers, strings, a list of [t, dP] number pairs for events, and
    null where the default is null.  A number whose default is not an int
    becomes a float: numpy stores an int beyond int64 as an object.  Raises
    ConfigError naming name.key."""
    out = dict(cfg[name])
    for key, default in DEFAULT_CONFIG[name].items():
        val = out[key]
        if key == "events":
            ok = isinstance(val, list) and all(
                isinstance(ev, list) and len(ev) == 2 and all(map(_finite, ev))
                for ev in val)
            kind = "a list of [t, dP] pairs of finite numbers"
        elif isinstance(default, str):
            ok, kind = isinstance(val, str), "a string"
        else:
            ok = _finite(val) or val is default is None
            kind = "a finite number" + (" or null" if default is None else "")
            if ok and val is not None and type(default) is not int:
                out[key] = float(val)
        if not ok:
            raise ConfigError(f"{name}.{key} must be {kind}, got {val!r}")
    return out


def build(name: str, cls, **kwargs):
    """cls(**kwargs) from section name; the ValueError of a rejected value
    becomes a ConfigError in which each key of the section reads name.key."""
    try:
        return cls(**kwargs)
    except ValueError as e:
        keys = "|".join(DEFAULT_CONFIG[name])
        raise ConfigError(re.sub(rf"\b({keys})\b", rf"{name}.\1", str(e))) from e


def make_turbine(cfg: dict) -> TurbineParams:
    return build("turbine", TurbineParams, **section(cfg, "turbine"))


def make_plant(cfg: dict) -> PlantParams:
    return PlantParams(turbine=make_turbine(cfg),
                       sg=build("sg", SgParams, **section(cfg, "sg")),
                       network=build("network", NetworkParams,
                                     **section(cfg, "network")))


def make_design_spec(cfg: dict) -> DesignSpec:
    c = section(cfg, "control")
    preset = c.pop("preset")
    if preset not in PRESETS:
        raise ConfigError(f"control.preset must be one of "
                          f"{', '.join(PRESETS)}, got {preset!r}")
    if c["d_omega_max"] is None:
        c["d_omega_max"] = PRESETS[preset]
    return build("control", DesignSpec, **c)


def make_mode(name: str) -> Mode:
    try:
        return Mode[name]
    except KeyError:
        raise ConfigError(f"scenario.mode must be one of "
                          f"{', '.join(Mode.__members__)}, got {name!r}") from None


def make_load(cfg: dict) -> LoadProfile:
    sc = section(cfg, "scenario")
    events = tuple((float(t), float(dp)) for t, dp in sc["events"])
    return LoadProfile(base=float(sc["base_load"]), events=events)


def make_surface(cfg: dict) -> CpSurface:
    return CpSurface()


@dataclass(frozen=True)
class Scenario:
    mode: Mode = Mode.GFM_FR
    v_w: float = 8.0
    eta: float = 0.9
    load: LoadProfile = LoadProfile()
    duration: float = 60.0
    dt: float = 5e-4
    sample_dt: float = 1e-3
    spec: DesignSpec = DesignSpec()

    def __post_init__(self):
        require_positive(self, "duration", "dt", "sample_dt", "v_w")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        # sample_grid rounds these to the step count and the stride
        for name in ("duration", "sample_dt"):
            steps = getattr(self, name) / self.dt
            if steps >= MAX_STEPS + 0.5:
                raise ValueError(f"{name} / dt must be at most {MAX_STEPS} "
                                 f"RK4 steps, got {steps:.4g}")
        if sorted(self.load.ev_times) != list(self.load.ev_times):
            raise ValueError("events must be in time order")
        for t_ev, _ in self.load.events:
            # compute_metrics' condition, on the trace's last sample
            if not (0.0 < t_ev and t_ev + SETTLE_WINDOW <= self.t_end):
                raise ValueError(
                    f"events must fall in (0, {self.t_end - SETTLE_WINDOW:g}]"
                    f" s: the trace ends at {self.t_end:g} s (duration on the "
                    f"grid of dt and sample_dt) and its last "
                    f"{SETTLE_WINDOW:g} s are the settled tail")
            # off the grid, a load step would fall inside an RK4 step
            if abs(round(t_ev / self.dt) * self.dt - t_ev) > 1e-12:
                raise ValueError(f"events must lie on the grid of dt: "
                                 f"{t_ev} s is not a multiple of dt = "
                                 f"{self.dt} s")

    @property
    def t_end(self) -> float:
        """Time of the trace's last row, as the kernel computes it."""
        return sample_grid(self.duration, self.dt, self.sample_dt)[0] * self.dt


# Each section's defaults are the field defaults of the class it builds.
# control.d_omega_max is null for "the preset's"; scenario.mode is the
# Mode's name and scenario.events a list of [t, dP] lists, as in JSON.
DEFAULT_CONFIG = {
    **{name: {f.name: f.default for f in fields(cls)}
       for name, cls in (("turbine", TurbineParams), ("sg", SgParams),
                         ("network", NetworkParams))},
    "control": {"preset": "table3",
                **{f.name: f.default for f in fields(DesignSpec)},
                "d_omega_max": None},
    "scenario": {
        "mode": Scenario.mode.name, "v_w": Scenario.v_w, "eta": Scenario.eta,
        "base_load": Scenario.load.base,
        "events": [list(ev) for ev in Scenario.load.events],
        "duration": Scenario.duration, "dt": Scenario.dt,
        "sample_dt": Scenario.sample_dt,
    },
}


def scenario_from_config(cfg: dict) -> Scenario:
    sc = section(cfg, "scenario")
    return build("scenario", Scenario, mode=make_mode(sc["mode"]),
                 v_w=float(sc["v_w"]), eta=float(sc["eta"]),
                 load=make_load(cfg), duration=float(sc["duration"]),
                 dt=float(sc["dt"]), sample_dt=float(sc["sample_dt"]),
                 spec=make_design_spec(cfg))


def gains_for_scenario(plant: PlantParams, surface: CpSurface,
                       scenario: Scenario) -> GainDesign:
    if scenario.mode == Mode.GFM_FR and scenario.eta < 1.0:
        return design_gains(plant.turbine, surface, scenario.v_w,
                            scenario.eta, scenario.spec)
    return mppt_gains(plant.turbine, surface, scenario.v_w, scenario.spec)
