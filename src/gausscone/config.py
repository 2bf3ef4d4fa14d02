"""Run configuration: JSON schema parsing and object construction.

Schema (all extra keys rejected):

    {
      "dim": 2,
      "weight": {"kind": "monomial", "exponents": [1.5, 0.0]},
      "cone":   {"kind": "orthant", "axes": [0]},          # optional
      "quadrature": {"order": 32} | {"mc_samples": 100000},
      "fields": [{"kind": "exp_axis", "b": 0.5, "axis": 1}, ...],  # optional
      "suites": ["poincare", "lsi"],
      "tolerance": 1e-7,                                    # optional
      "seed": 0,                                            # optional
      "output": "report.json"                               # optional
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cones import Cone, FullSpace, Halfspace, Orthant
from .errors import ConfigError, ToolkitError
from .fields import (
    ScalarField,
    affine,
    constant,
    exp_axis,
    gaussian,
    gaussian_quarter,
    hermite_witness,
    poly_gauss,
)
from .inequalities import TOLERANCE_SCALE
from .measures import DEFAULT_ORDER
from .suites import SUITE_NAMES
from .weights import (
    DunklProduct,
    GaussianTilt,
    Monomial,
    PartialProduct,
    Radial,
    Weight,
    make_weight,
)

_WEIGHT_KINDS = ("monomial", "radial", "dunkl", "gaussian_tilt",
                 "partial_product", "one")
_CONE_KINDS = ("full_space", "orthant", "halfspace")
_FIELD_KINDS = ("constant", "affine", "exp_axis", "hermite_witness",
                "gaussian", "gaussian_quarter", "poly_gauss")


@dataclass(frozen=True)
class RunConfig:
    dim: int
    weight: dict
    cone: dict | None
    quadrature: dict
    fields: tuple[dict, ...] | None
    suites: tuple[str, ...]
    tolerance: float
    seed: int
    output: str | None
    raw: dict = field(default_factory=dict, repr=False)


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def parse_config(source) -> RunConfig:
    """Parse and validate a config from a dict, JSON string or file path."""
    if isinstance(source, dict):
        raw = source
    else:
        text = source
        if not str(source).lstrip().startswith("{"):
            try:
                with open(source) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config must be a JSON object")
    allowed = {"dim", "weight", "cone", "quadrature", "fields", "suites",
               "tolerance", "seed", "output"}
    extra = set(raw) - allowed
    _require(not extra, f"unknown config keys: {sorted(extra)}")

    dim = raw.get("dim")
    _require(isinstance(dim, int) and 1 <= dim <= 6,
             "dim must be an integer in [1, 6]")
    weight = raw.get("weight")
    _require(isinstance(weight, dict) and weight.get("kind") in _WEIGHT_KINDS,
             f"weight.kind must be one of {_WEIGHT_KINDS}")
    cone = raw.get("cone")
    if cone is not None:
        _require(isinstance(cone, dict) and cone.get("kind") in _CONE_KINDS,
                 f"cone.kind must be one of {_CONE_KINDS}")
    quadrature = raw.get("quadrature", {"order": DEFAULT_ORDER})
    _require(isinstance(quadrature, dict)
             and ("order" in quadrature) != ("mc_samples" in quadrature),
             "quadrature needs exactly one of order / mc_samples")
    fields = raw.get("fields")
    if fields is not None:
        _require(isinstance(fields, list) and all(
            isinstance(f, dict) and f.get("kind") in _FIELD_KINDS
            for f in fields), f"field kinds must be among {_FIELD_KINDS}")
    suites = raw.get("suites")
    _require(isinstance(suites, list)
             and all(s in SUITE_NAMES for s in suites),
             f"suites must be a list drawn from {SUITE_NAMES}")
    tolerance = float(raw.get("tolerance", TOLERANCE_SCALE))
    _require(tolerance > 0, "tolerance must be positive")
    seed = int(raw.get("seed", 0))
    output = raw.get("output")
    return RunConfig(dim=dim, weight=weight, cone=cone, quadrature=quadrature,
                     fields=tuple(fields) if fields is not None else None,
                     suites=tuple(suites), tolerance=tolerance, seed=seed,
                     output=output, raw=raw)


def build_cone(spec: dict | None, dim: int) -> Cone | None:
    if spec is None:
        return None
    kind = spec["kind"]
    if kind == "full_space":
        return FullSpace(dim)
    if kind == "orthant":
        return Orthant(dim, frozenset(spec.get("axes", range(dim))))
    if kind == "halfspace":
        return Halfspace(dim, tuple(spec["normal"]))
    raise ConfigError(f"unknown cone kind {kind!r}")


def _build_spec(spec: dict, dim: int):
    kind = spec["kind"]
    try:
        if kind == "one":
            return Monomial(tuple(0.0 for _ in range(dim)))
        if kind == "monomial":
            return Monomial(tuple(spec["exponents"]))
        if kind == "radial":
            return Radial(float(spec["alpha"]))
        if kind == "dunkl":
            return DunklProduct(tuple(tuple(r) for r in spec["roots"]),
                                tuple(spec["multiplicities"]))
        if kind == "gaussian_tilt":
            return GaussianTilt(float(spec["s"]))
        if kind == "partial_product":
            inner = _build_spec(spec["inner"], len(spec["coords"]))
            return PartialProduct(inner, tuple(spec["coords"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad weight spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown weight kind {kind!r}")


def build_weight(config: RunConfig) -> Weight:
    spec = _build_spec(config.weight, config.dim)
    cone = build_cone(config.cone, config.dim)
    try:
        return make_weight(spec, config.dim, cone=cone)
    except ToolkitError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_field(spec: dict, dim: int) -> ScalarField:
    kind = spec["kind"]
    try:
        if kind == "constant":
            return constant(float(spec["c"]), dim)
        if kind == "affine":
            return affine(list(spec["a"]), float(spec.get("b", 0.0)), dim)
        if kind == "exp_axis":
            return exp_axis(float(spec["b"]), int(spec["axis"]), dim)
        if kind == "hermite_witness":
            return hermite_witness(int(spec["axis"]), dim)
        if kind == "gaussian":
            return gaussian(float(spec.get("amplitude", 1.0)),
                            float(spec["lam"]), dim)
        if kind == "gaussian_quarter":
            return gaussian_quarter(float(spec.get("amplitude", 1.0)), dim)
        if kind == "poly_gauss":
            return poly_gauss(int(spec.get("seed", 0)), dim,
                              degree=int(spec.get("degree", 3)),
                              even_axes=frozenset(spec.get("even_axes", ())))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad field spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown field kind {kind!r}")
