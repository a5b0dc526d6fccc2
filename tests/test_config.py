"""Configuration round trips and validation."""

import dataclasses
import json
import math

import pytest

from flexscat.assembly import Method
from flexscat.config import ConfigError, ScatterConfig
from flexscat.geometry import Circle, Ellipse, Kite


def test_defaults_reproduce_baseline_setup():
    cfg = ScatterConfig()
    assert cfg.kappa == math.pi
    assert cfg.alpha == pytest.approx(math.pi / 3)
    assert cfg.shape == Circle(0.3)
    assert cfg.R == 0.6
    assert cfg.N == 15
    assert cfg.method.kind == "regular"


@pytest.mark.parametrize("shape", [Circle(0.25), Ellipse(0.4, 0.2),
                                   Kite(0.3, 0.2, 0.1)])
@pytest.mark.parametrize("method", [Method.regular(),
                                    Method.interior_penalty(3e-3),
                                    Method.boundary_penalty(8e-3)])
def test_json_round_trip(shape, method):
    cfg = ScatterConfig(kappa=2.0, alpha=0.4, shape=shape, R=0.7, N=12,
                        method=method, h_target=0.08, oracle="none",
                        out_dir="artifacts")
    back = ScatterConfig.from_json(json.dumps(cfg.to_dict()))
    assert back == cfg


def test_round_trip_with_mesh_path():
    cfg = ScatterConfig(mesh_path="some/mesh.txt", oracle="none")
    back = ScatterConfig.from_json(json.dumps(cfg.to_dict()))
    assert back.mesh_path == "some/mesh.txt"


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        ScatterConfig.from_dict({"kapa": 3.0})


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        ScatterConfig(kappa=-1.0)
    with pytest.raises(ConfigError):
        ScatterConfig(R=0.0)
    with pytest.raises(ConfigError):
        ScatterConfig(N=-2)
    with pytest.raises(ConfigError):
        ScatterConfig(h_target=0.0)
    with pytest.raises(ConfigError):
        ScatterConfig.from_dict({"shape": {"kind": "square", "a": 1.0}})
    with pytest.raises(ConfigError):
        ScatterConfig.from_dict({"method": {"kind": "ip"}})
    for bad in ({"kappa": "x"}, {"kappa": None}, {"N": 2.7}, {"oracle": "bogus"},
                {"oracle": None}, {"out_dir": None}, {"shape": "circle:0.3"},
                {"shape": {"kind": "circle", "radius": 0.3, "a": 1.0}},
                # JSON booleans are no numbers, although float(True) is 1.0
                {"kappa": True}, {"N": False}, {"h_target": True},
                {"shape": {"kind": "circle", "radius": True}},
                {"method": {"kind": "ip", "gamma": True}}):
        with pytest.raises(ConfigError):
            ScatterConfig.from_dict(bad)
    with pytest.raises(ConfigError):
        ScatterConfig.from_json("[1, 2]")
    with pytest.raises(ConfigError):
        ScatterConfig.from_json("{ not json")


def test_alpha_wraps_modulo_two_pi():
    cfg = ScatterConfig(alpha=2.5 * math.pi)
    assert cfg.alpha == pytest.approx(0.5 * math.pi)


def test_config_is_frozen_and_n_integral():
    cfg = ScatterConfig.from_dict({"N": 15.0, "kappa": 2})
    assert cfg.N == 15 and isinstance(cfg.N, int)
    assert cfg.kappa == 2.0 and isinstance(cfg.kappa, float)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.kappa = 3.0
    assert dataclasses.replace(cfg, kappa=3.0).kappa == 3.0
