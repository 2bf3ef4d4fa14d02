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

`build_weight` refuses a weight whose spec's `zero_set` meets the open cone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

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


def _number(value, kind=Integral) -> bool:
    """A number of the kind, but not a JSON true/false."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _indices(value, dim: int) -> bool:
    """Whether value is a list of integers in [0, dim)."""
    return isinstance(value, list) and all(_number(a) and 0 <= a < dim for a in value)


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
    _require(_number(dim) and 1 <= dim <= 6,
             "dim must be an integer in [1, 6]")
    weight = raw.get("weight")
    _require(isinstance(weight, dict) and weight.get("kind") in _WEIGHT_KINDS,
             f"weight.kind must be one of {_WEIGHT_KINDS}")
    cone = raw.get("cone")
    if cone is not None:
        _require(isinstance(cone, dict) and cone.get("kind") in _CONE_KINDS,
                 f"cone.kind must be one of {_CONE_KINDS}")
    quadrature = raw.get("quadrature", {"order": DEFAULT_ORDER})
    _require(isinstance(quadrature, dict) and len(quadrature) == 1
             and set(quadrature) <= {"order", "mc_samples"},
             f"quadrature needs one key, order or mc_samples: {quadrature!r}")
    ((key, value),) = quadrature.items()
    _require(_number(value) and value >= 1,
             f"quadrature.{key} must be a positive integer")
    fields = raw.get("fields")
    if fields is not None:
        _require(isinstance(fields, list) and all(
            isinstance(f, dict) and f.get("kind") in _FIELD_KINDS
            for f in fields), f"field kinds must be among {_FIELD_KINDS}")
    suites = raw.get("suites")
    _require(isinstance(suites, list)
             and all(s in SUITE_NAMES for s in suites),
             f"suites must be a list drawn from {SUITE_NAMES}")
    tolerance = raw.get("tolerance", TOLERANCE_SCALE)
    _require(_number(tolerance, Real) and 0 < tolerance < math.inf,
             "tolerance must be a positive finite number")
    seed = raw.get("seed", 0)
    # the Monte Carlo rules key Philox by the seed, a 128-bit unsigned value
    _require(_number(seed) and 0 <= seed < 2 ** 128,
             "seed must be an integer in [0, 2^128)")
    output = raw.get("output")
    _require(output is None or isinstance(output, str),
             f"output must be a path string: {output!r}")
    return RunConfig(dim=dim, weight=weight, cone=cone, quadrature=quadrature,
                     fields=tuple(fields) if fields is not None else None,
                     suites=tuple(suites), tolerance=float(tolerance),
                     seed=int(seed), output=output, raw=raw)


def build_cone(spec: dict | None, dim: int) -> Cone | None:
    if spec is None:
        return None
    kind = spec["kind"]
    if kind == "full_space":
        return FullSpace(dim)
    if kind == "orthant":
        axes = spec.get("axes", list(range(dim)))
        _require(_indices(axes, dim),
                 f"cone.axes must be a list of integers in [0, {dim}): {axes!r}")
        return Orthant(dim, frozenset(axes))
    if kind == "halfspace":
        normal = spec.get("normal")
        _require(isinstance(normal, list) and len(normal) == dim
                 and all(_number(c, Real) and math.isfinite(c) for c in normal)
                 and any(normal),
                 f"cone.normal must be {dim} finite numbers, not all zero: "
                 f"{normal!r}")
        return Halfspace(dim, tuple(normal))
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
            roots = spec["roots"]
            _require(len({len(r) for r in roots}) <= 1,
                     f"weight.roots must all have one length: {roots!r}")
            return DunklProduct(tuple(tuple(r) for r in roots),
                                tuple(spec["multiplicities"]))
        if kind == "gaussian_tilt":
            return GaussianTilt(float(spec["s"]))
        if kind == "partial_product":
            coords = spec["coords"]
            inner = _build_spec(spec["inner"], len(coords))
            _require(_indices(coords, dim) and len(set(coords)) == len(coords)
                     and inner.dim_hint() in (None, len(coords)),
                     f"weight.coords must be distinct integers in [0, {dim}), one "
                     f"per dimension of the inner weight: {coords!r}")
            return PartialProduct(inner, tuple(coords))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad weight spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown weight kind {kind!r}")


def _meets_open_cone(cone: Cone, beta: np.ndarray) -> bool:
    """Whether the hyperplane <beta, x> = 0 meets the open cone.  It misses
    it exactly when beta or -beta is a nonnegative combination of the
    normals; the normals are orthonormal, so the coefficients are N beta."""
    coef = cone.matrix @ beta
    in_span = np.allclose(cone.matrix.T @ coef, beta, rtol=0, atol=1e-12)
    return not (in_span and (np.all(coef >= 0) or np.all(coef <= 0)))


def _cone_spec(cone: Cone) -> dict:
    """The config entry of a config or natural cone."""
    sig = cone.axis_signature()
    if not cone.normals:
        return {"kind": "full_space"}
    if sig is not None and "half-" not in sig:
        return {"kind": "orthant", "axes": sorted(cone.constrained_axes())}
    return {"kind": "halfspace", "normal": list(cone.normals[0])}


def _check_positive_on_cone(weight: Weight):
    """Refuse a weight whose zero set meets the open cone: a hyperplane of
    its zero set that the cone does not keep out."""
    for beta in weight.spec.zero_set(weight.dim):
        if _meets_open_cone(weight.cone, beta):
            try:
                hint = f"its natural cone is {_cone_spec(weight.spec.natural_cone(weight.dim))}"
            except ValueError as exc:
                hint = str(exc)
            raise ConfigError(
                f"the weight vanishes on the hyperplane <{beta.tolist()}, x> = 0 "
                f"inside the cone {_cone_spec(weight.cone)}, but the theorems "
                f"need w > 0 on the open cone; {hint}")


def build_weight(config: RunConfig) -> Weight:
    """The config's weight on its cone; refused when w vanishes inside the
    open cone (`make_weight` itself admits such weights)."""
    spec = _build_spec(config.weight, config.dim)
    cone = build_cone(config.cone, config.dim)
    try:
        weight = make_weight(spec, config.dim, cone=cone)
    except ToolkitError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _check_positive_on_cone(weight)
    return weight


def _field_param(spec: dict, key: str, default=None, kind=Real,
                 below=math.inf):
    """spec[key], or the default when the key is absent: a finite number,
    or for kind Integral (an index, a degree, a seed) an integer in
    [0, below); else a ConfigError naming the field."""
    value = spec.get(key, default)
    want = f"an integer in [0, {below})" if kind is Integral else "a finite number"
    _require(_number(value, kind) and (0 <= value < below if kind is Integral
                                       else math.isfinite(value)),
             f"field {spec['kind']} needs {key} to be {want}: {spec!r}")
    return value


def build_field(spec: dict, dim: int) -> ScalarField:
    kind = spec["kind"]
    if kind == "constant":
        return constant(_field_param(spec, "c"), dim)
    if kind == "affine":
        slope = spec.get("a")
        _require(isinstance(slope, list) and len(slope) == dim and all(
            _number(c, Real) and math.isfinite(c) for c in slope),
            f"field affine needs a to be {dim} finite numbers: {spec!r}")
        return affine(slope, _field_param(spec, "b", 0.0), dim)
    if kind == "exp_axis":
        return exp_axis(_field_param(spec, "b"),
                        _field_param(spec, "axis", kind=Integral, below=dim), dim)
    if kind == "hermite_witness":
        return hermite_witness(_field_param(spec, "axis", kind=Integral, below=dim), dim)
    if kind == "gaussian":
        lam = _field_param(spec, "lam")
        _require(lam > 0 and lam * lam > 0 and math.isfinite(0.5 / (lam * lam)),
                 f"field gaussian needs lam > 0 with 1/(2 lam^2) finite: {spec!r}")
        return gaussian(_field_param(spec, "amplitude", 1.0), lam, dim)
    if kind == "gaussian_quarter":
        return gaussian_quarter(_field_param(spec, "amplitude", 1.0), dim)
    if kind == "poly_gauss":
        even = spec.get("even_axes", [])
        _require(_indices(even, dim),
                 f"field poly_gauss needs even_axes in [0, {dim}): {spec!r}")
        return poly_gauss(_field_param(spec, "seed", 0, Integral), dim,
                          degree=_field_param(spec, "degree", 3, Integral),
                          even_axes=frozenset(even))
    raise ConfigError(f"unknown field kind {kind!r}")
