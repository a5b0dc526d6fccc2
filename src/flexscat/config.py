"""Run configuration: JSON serialization of a single scattering setup.

Defaults reproduce the baseline circular-cavity experiment: cavity radius
0.3, truncation radius 0.6, incident angle pi/3, wavenumber pi, DtN
truncation order 15.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .assembly import Method
from .geometry import CavityShape, Circle, Ellipse, Kite
from .specfun import MAX_ORDER


class ConfigError(Exception):
    pass


def shape_to_dict(shape: CavityShape) -> dict:
    if isinstance(shape, Circle):
        return {"kind": "circle", "radius": shape.radius}
    if isinstance(shape, Ellipse):
        return {"kind": "ellipse", "a": shape.a, "b": shape.b}
    if isinstance(shape, Kite):
        return {"kind": "kite", "a": shape.a, "b": shape.b, "c": shape.c}
    raise ConfigError(f"unknown shape {shape!r}")


def shape_from_dict(d: dict) -> CavityShape:
    try:
        kind = d["kind"]
        if kind == "circle":
            return Circle(float(d["radius"]))
        if kind == "ellipse":
            return Ellipse(float(d["a"]), float(d["b"]))
        if kind == "kite":
            return Kite(float(d["a"]), float(d["b"]), float(d["c"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad shape spec {d!r}: {exc}") from exc
    raise ConfigError(f"unknown shape kind {kind!r}")


def method_to_dict(m: Method) -> dict:
    d = {"kind": m.kind}
    if m.kind == "ip":
        d["gamma"] = m.gamma
    elif m.kind == "bp":
        d["eta"] = m.eta
    return d


def method_from_dict(d: dict) -> Method:
    try:
        kind = d["kind"]
        if kind == "regular":
            return Method.regular()
        if kind == "ip":
            return Method.interior_penalty(float(d["gamma"]))
        if kind == "bp":
            return Method.boundary_penalty(float(d["eta"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad method spec {d!r}: {exc}") from exc
    raise ConfigError(f"unknown method kind {kind!r}")


@dataclass
class ScatterConfig:
    kappa: float = math.pi
    alpha: float = math.pi / 3.0
    shape: CavityShape = field(default_factory=lambda: Circle(0.3))
    R: float = 0.6
    N: int = 15
    method: Method = field(default_factory=Method.regular)
    # mesh source: either a target mesh size or an import path
    h_target: float = 0.05
    mesh_path: str | None = None
    # oracle: "series", "none", or a path to a reference run directory
    oracle: str = "series"
    out_dir: str = "out"

    def __post_init__(self):
        for name in ("kappa", "alpha", "R", "h_target"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.kappa <= 0:
            raise ConfigError("kappa must be positive")
        if self.R <= 0:
            raise ConfigError("R must be positive")
        if not 0 <= self.N <= MAX_ORDER:
            raise ConfigError(f"N must be in 0..{MAX_ORDER}")
        if self.mesh_path is None and self.h_target <= 0:
            raise ConfigError("h_target must be positive")
        self.alpha = self.alpha % (2.0 * math.pi)

    def to_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "alpha": self.alpha,
            "shape": shape_to_dict(self.shape),
            "R": self.R,
            "N": self.N,
            "method": method_to_dict(self.method),
            "h_target": self.h_target,
            "mesh_path": self.mesh_path,
            "oracle": self.oracle,
            "out_dir": self.out_dir,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "ScatterConfig":
        cfg = cls()
        known = {"kappa", "alpha", "R", "N", "h_target", "mesh_path",
                 "oracle", "out_dir", "shape", "method"}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("kappa", "alpha", "R", "h_target"):
            if key in d:
                setattr(cfg, key, float(d[key]))
        if "N" in d:
            cfg.N = int(d["N"])
        for key in ("mesh_path", "oracle", "out_dir"):
            if key in d and d[key] is not None:
                setattr(cfg, key, str(d[key]))
            elif key in d:
                setattr(cfg, key, None)
        if "shape" in d:
            cfg.shape = shape_from_dict(d["shape"])
        if "method" in d:
            cfg.method = method_from_dict(d["method"])
        cfg.__post_init__()
        return cfg

    @classmethod
    def from_json(cls, text: str) -> "ScatterConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid config JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(d)
