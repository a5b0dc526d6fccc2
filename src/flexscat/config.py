"""Run configuration: JSON serialization of a single scattering setup.

Defaults reproduce the baseline circular-cavity experiment: cavity radius
0.3, truncation radius 0.6, incident angle pi/3, wavenumber pi, DtN
truncation order 15.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .assembly import Method
from .geometry import CavityShape, Circle, Ellipse, Kite
from .specfun import MAX_ORDER


class ConfigError(Exception):
    pass


#: Cavity shapes by kind.  Field names are the JSON keys, and field order
#: is the order of the values in the command-line form ``kite:a,b,c``.
SHAPES = {"circle": Circle, "ellipse": Ellipse, "kite": Kite}
_SHAPE_PARAMS = {kind: tuple(f.name for f in dataclasses.fields(cls))
                 for kind, cls in SHAPES.items()}

#: Methods by kind, with the name of each kind's penalty parameter.
METHODS = {"regular": (), "ip": ("gamma",), "bp": ("eta",)}


def _finite(name: str, value) -> float:
    if isinstance(value, bool):  # float(True) is 1.0, but JSON true is no number
        raise ConfigError(f"{name} must be a number")
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite")
    return value


def _forms(table: dict) -> str:
    return " | ".join(f"{k}:{','.join(names)}" if names else k
                      for k, names in table.items())


def _from_spec(family: str, table: dict, make, spec: dict):
    """``make(kind, **params)`` from a spec dict ``{"kind": k, name: value}``."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if (not isinstance(kind, str) or kind not in table
            or set(spec) != {"kind", *table[kind]}):
        raise ConfigError(f"bad {family} {spec!r}: expected {_forms(table)}")
    params = {name: _finite(name, spec[name]) for name in table[kind]}
    try:
        return make(kind, **params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _text_spec(family: str, table: dict, text: str) -> dict:
    """The spec dict of a command-line form ``kind:v1,v2``."""
    kind, _, rest = text.partition(":")
    values = rest.split(",") if rest else []
    names = table.get(kind)
    if names is None or len(values) != len(names):
        raise ConfigError(f"bad {family} {text!r}: expected {_forms(table)}")
    return {"kind": kind, **dict(zip(names, values))}


def shape_to_dict(shape: CavityShape) -> dict:
    kind = next(k for k, cls in SHAPES.items() if type(shape) is cls)
    return {"kind": kind, **dataclasses.asdict(shape)}


def shape_from_dict(spec: dict) -> CavityShape:
    return _from_spec("shape", _SHAPE_PARAMS, lambda kind, **p: SHAPES[kind](**p), spec)


def shape_from_text(text: str) -> CavityShape:
    """Shape from its command-line form, e.g. ``kite:0.3,0.2,0.1``."""
    return shape_from_dict(_text_spec("shape", _SHAPE_PARAMS, text))


def method_to_dict(m: Method) -> dict:
    return {"kind": m.kind, **{name: getattr(m, name) for name in METHODS[m.kind]}}


def method_from_dict(spec: dict) -> Method:
    return _from_spec("method", METHODS, Method, spec)


def method_from_text(text: str) -> Method:
    """Method from its command-line form, e.g. ``ip:0.003``."""
    return method_from_dict(_text_spec("method", METHODS, text))


@dataclass(frozen=True)
class ScatterConfig:
    """One validated, immutable run setup; derive variants with
    ``dataclasses.replace``, which validates again."""

    kappa: float = math.pi
    alpha: float = math.pi / 3.0
    shape: CavityShape = field(default_factory=lambda: Circle(0.3))
    R: float = 0.6
    N: int = 15
    method: Method = field(default_factory=Method.regular)
    # mesh source: either a target mesh size or an import path
    h_target: float = 0.05
    mesh_path: str | None = None
    # oracle: "series", "none", or "reference:<dir>" of a previous run
    oracle: str = "series"
    out_dir: str = "out"

    def __post_init__(self):
        for name in ("kappa", "alpha", "R", "h_target"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        if self.kappa <= 0:
            raise ConfigError("kappa must be positive")
        if self.R <= 0:
            raise ConfigError("R must be positive")
        n = _finite("N", self.N)
        if not n.is_integer() or not 0 <= n <= MAX_ORDER:
            raise ConfigError(f"N must be an integer in 0..{MAX_ORDER}")
        object.__setattr__(self, "N", int(n))
        if self.mesh_path is None and self.h_target <= 0:
            raise ConfigError("h_target must be positive")
        if not (isinstance(self.out_dir, str)
                and isinstance(self.mesh_path, (str, type(None)))):
            raise ConfigError("out_dir must be a string, mesh_path a string or null")
        kind, _, run_dir = str(self.oracle).partition(":")
        if self.oracle not in ("series", "none") and not (kind == "reference" and run_dir):
            raise ConfigError(f"oracle must be series, none or reference:<run dir>, "
                              f"not {self.oracle!r}")
        object.__setattr__(self, "alpha", self.alpha % (2.0 * math.pi))

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "shape": shape_to_dict(self.shape),
                "method": method_to_dict(self.method)}

    @classmethod
    def from_dict(cls, d: dict) -> "ScatterConfig":
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        d = dict(d)
        if "shape" in d:
            d["shape"] = shape_from_dict(d["shape"])
        if "method" in d:
            d["method"] = method_from_dict(d["method"])
        return cls(**d)

    @classmethod
    def from_json(cls, text: str) -> "ScatterConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid config JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(d)
