import json

import pytest

from windgfm.aero import CpSurface, TurbineParams
from windgfm.config import (
    ConfigError, DEFAULT_CONFIG, apply_overrides, load_config,
    make_design_spec, make_load, make_mode, make_plant, make_surface,
    make_turbine,
)
from windgfm.gaindesign import DesignSpec
from windgfm.harness import Scenario, scenario_from_config
from windgfm.plant import Mode, NetworkParams, PlantParams, SgParams


def test_defaults_load_without_file():
    cfg = load_config(None)
    assert cfg == DEFAULT_CONFIG
    assert cfg is not DEFAULT_CONFIG  # deep copy


def test_load_config_merges_partial_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": {"v_w": 10.0}}))
    cfg = load_config(str(path))
    assert cfg["scenario"]["v_w"] == 10.0
    assert cfg["scenario"]["eta"] == 0.9  # untouched default


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": {"windspeed": 10.0}}))
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text(json.dumps({"nonsense": {}}))
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text("not json")
    with pytest.raises(ConfigError):
        load_config(str(path))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


def test_apply_overrides(cfg):
    out = apply_overrides(cfg, ["scenario.v_w=10.0",
                                "scenario.mode=GFM_MPPT",
                                "scenario.events=[[20.0,0.3]]"])
    assert out["scenario"]["v_w"] == 10.0
    assert out["scenario"]["mode"] == "GFM_MPPT"  # bare string accepted
    assert out["scenario"]["events"] == [[20.0, 0.3]]


def test_apply_overrides_rejects_bad_keys(cfg):
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["scenario.v_w"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["scenario.nope=1"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["a.b.c=1"])


def test_factories(cfg):
    plant = make_plant(cfg)
    assert plant.turbine.R == 63.0
    assert plant.network.s_base == 50e6
    spec = make_design_spec(cfg)
    assert spec.d_omega_max == 0.01
    load = make_load(cfg)
    assert load.base == 2.0 and load.events == ((30.0, 0.4),)
    assert make_mode("GFM_FR") == Mode.GFM_FR
    assert make_surface(cfg) == CpSurface()


def test_default_config_matches_dataclass_defaults():
    # DEFAULT_CONFIG is derived from the dataclasses: the CLI's defaults
    # are the library's, in a JSON-shaped schema of fixed keys
    assert make_plant(DEFAULT_CONFIG) == PlantParams(
        TurbineParams(), SgParams(), NetworkParams())
    assert make_design_spec(DEFAULT_CONFIG) == DesignSpec()
    assert scenario_from_config(DEFAULT_CONFIG) == Scenario()
    for section in DEFAULT_CONFIG.values():
        assert json.loads(json.dumps(section)) == section
    assert {name: list(section) for name, section in DEFAULT_CONFIG.items()} \
        == {"turbine": ["rho", "R", "J_wt", "omega_nom", "omega_max",
                        "P_rated", "n_agg"],
            "sg": ["h_g", "t_g", "droop", "rating"],
            "network": ["b_g", "b_msc", "c_dc", "s_base", "f_hz"],
            "control": ["preset", "d_omega_max", "d_v_max", "msc_floor",
                        "target_droop", "k_d_gsc", "t_dc"],
            "scenario": ["mode", "v_w", "eta", "base_load", "events",
                         "duration", "dt", "sample_dt"]}


def test_preset_selects_excursion_budget(cfg):
    cfg["control"]["preset"] = "fig7"
    assert make_design_spec(cfg).d_omega_max == 0.005
    cfg["control"]["d_omega_max"] = 0.02
    assert make_design_spec(cfg).d_omega_max == 0.02
    cfg["control"]["preset"] = "bogus"
    with pytest.raises(ConfigError):
        make_design_spec(cfg)


def test_factory_errors_are_config_errors(cfg):
    cfg["turbine"]["R"] = -1.0
    with pytest.raises(ConfigError):
        make_turbine(cfg)
    with pytest.raises(ConfigError):
        make_mode("NOPE")
