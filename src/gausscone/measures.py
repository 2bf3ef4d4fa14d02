"""The probability measures mu_{w,lambda} = w(x) exp(-|x|^2/(2 lambda^2)) dx / Z
on quadrature rules, and rate-matched integrals against nu = w dx.

Rule families:

* tensor rules of generalized Gauss-Hermite factors whenever the weight
  factorizes per axis and every normal of the cone is a signed axis vector
  (monomial, axis-aligned Dunkl, one-dimensional radial, Gaussian tilts,
  and partial products of these);
* a polar rule (generalized half-line Hermite in r, trapezoid in the angle)
  for radial weights on the full plane, the cone without normals, which is
  exact for polynomial-times-Gaussian integrands just like the tensor rules;
* a seeded self-normalized importance-sampling rule targeting the density
  w exp(-|x|^2/(2 lambda^2)) for everything else (general Dunkl weights,
  custom weights).  Sampling uses the counter-based Philox generator, so a
  (seed, samples) pair reproduces the rule exactly.  Gaussian draws are
  folded into the cone: |.| per axis when every normal is a signed axis
  vector, a point reflection when the cone has one tilted normal.

A `Measure` holds the weight together with the rule settings it was made
with (the order, or the Monte Carlo sample count and seed), and every rule
of a run comes from those settings: `Measure.rule_at` is the rule of the
same family at any scale.  Every integral against mu goes through
`integrate`, which takes a vector integrand and checks that it is finite at
every node.  Integrals of Gaussian-decay fields against nu = w dx go through
`nu_integral(measure, ...)`, which takes the measure's rule at the scale
whose Gaussian factor matches the integrand's envelope rate exactly (the
measure's own scale plays no part), so polynomial-times-Gaussian integrands
are integrated exactly.  For a homogeneous weight `nu_monomials` gives the
integrals of monomials times a Gaussian of any rate from one cached table
of the lambda = 1 rule's moments, `Measure.moments`.

Point batches are stored axis-first: a rule's (N, n) `nodes` is the `.T`
view of a C-contiguous (n, N) buffer, so each coordinate is one contiguous
row and a reduction over the short axis (|x|^2, a dot product, a trace)
runs along the nodes.  Every (N, ...) array built at the nodes (field jets,
weight derivatives, the stacked integrands of the checkers) follows the
same rule, so `integrate` and `nu_integral` move the node axis last with a
view, not a copy.  Every function still accepts any layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .cones import Cone
from .errors import (
    DecayContractError,
    EvaluationError,
    IntegrationFailureError,
    NotHomogeneousError,
    ParameterError,
    ResourceError,
    UnsupportedRuleError,
)
from .polys import monomial_index, monomial_table
from .quad1d import fullline_rule, gamma_moment, halfline_rule
from .weights import Weight

DEFAULT_ORDER = 32
DEFAULT_MC_SAMPLES = 1_000_000
MAX_TENSOR_NODES = 4_000_000
# nodes per block of the monomial table of Measure.moments: bounds its memory
MOMENT_CHUNK = 2 ** 12


@dataclass(frozen=True)
class McInfo:
    seed: int
    samples: int
    proposal_sigma: float


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights integrating against w(x) exp(-|x|^2/(2 lambda^2)) dx."""

    nodes: np.ndarray          # (N, n) axis-first, strictly interior to the cone
    weights: np.ndarray        # (N,), positive
    kind: str                  # "tensor_generalized_hermite" | "polar"
                               # | "monte_carlo"
    scale: float               # lambda of the Gaussian factor
    mass: float                # exact for tensor rules, sum of weights for MC
    order: Optional[tuple[int, ...]] = None  # per-axis order for tensor rules
    mc: Optional[McInfo] = None


def _axis_scales(weight: Weight, lam: float) -> list[float] | None:
    """Per-axis effective Gaussian scales with any axis tilts folded in."""
    tilts = weight.axis_tilts()
    if tilts is None:
        return None
    scales = []
    for s in tilts:
        gamma = 1.0 / (lam * lam) + s
        if gamma <= 0:
            raise IntegrationFailureError(
                f"density w exp(-|x|^2/(2*{lam}^2)) has infinite mass "
                f"(axis tilt {s})")
        scales.append(1.0 / math.sqrt(gamma))
    return scales


def axis_factors(weight: Weight, lam: float
                 ) -> list[tuple[float, str, float]] | None:
    """Per-axis (exponent a, axis kind, scale s) when the density
    w exp(-|x|^2/(2 lambda^2)) is the product over axes of
    |t|^a e^(-t^2/(2 s^2)) on a full line ("full") or a half line
    ("half+"/"half-"); None when it does not factor that way."""
    exps = weight.axis_exponents()
    sig = weight.cone.axis_signature()
    scales = _axis_scales(weight, lam)
    if exps is None or sig is None or scales is None:
        return None
    # weight must vanish only on constrained axes, otherwise the support is
    # not a convex cone and the tensor factorization is wrong
    for a, kind in zip(exps, sig):
        if a > 0 and kind == "full":
            return None
    return list(zip(exps, sig, scales))


# per axis: 1-D rule nodes, weights and the exact mass of the axis factor
AxisRule = tuple[np.ndarray, np.ndarray, float]


def axis_rules(weight: Weight, lam: float, order: int) -> list[AxisRule] | None:
    """Per-axis 1-D rules of the given order whose tensor product is the
    tensor rule for w exp(-|x|^2/(2 lambda^2)) dx; None when the density
    does not factor per axis (`axis_factors`)."""
    factors = axis_factors(weight, lam)
    if factors is None:
        return None
    if order ** weight.dim > MAX_TENSOR_NODES:
        raise ResourceError(
            f"tensor rule would need {order ** weight.dim} nodes; use Monte Carlo")
    rules = []
    for a, kind, lam_eff in factors:
        if kind == "full":
            t, q = fullline_rule(float(a), order)
        else:
            t, q = halfline_rule(float(a), order)
            if kind == "half-":
                t = -t
        s = lam_eff ** (a + 1.0)
        m0 = gamma_moment(float(a), 0) * s
        rules.append((lam_eff * t, s * q, 2.0 * m0 if kind == "full" else m0))
    return rules


def tensor_grid(axis_nodes: Sequence[np.ndarray],
                axis_weights: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(N, n) axis-first nodes and (N,) weights of the tensor product of
    1-D rules; the last axis varies fastest."""
    grids = np.meshgrid(*axis_nodes, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids]).T
    wgrids = np.meshgrid(*axis_weights, indexing="ij")
    weights = np.ones(len(nodes))
    for g in wgrids:
        weights = weights * g.ravel()
    return nodes, weights


def _tensor_rule(weight: Weight, lam: float, order: int) -> QuadratureRule | None:
    rules = axis_rules(weight, lam, order)
    if rules is None:
        return None
    nodes, weights = tensor_grid([t for t, _, _ in rules],
                                 [q for _, q, _ in rules])
    mass = math.prod(m for _, _, m in rules)
    return QuadratureRule(nodes, weights, "tensor_generalized_hermite",
                          lam, mass, order=tuple([order] * weight.dim))


def _polar_rule(weight: Weight, lam: float, order: int) -> QuadratureRule | None:
    if not (weight.is_radial and weight.dim == 2 and not weight.cone.normals):
        return None
    alpha = weight.degree
    r, qr = halfline_rule(float(alpha) + 1.0, order)
    r = lam * r
    qr = lam ** (alpha + 2.0) * qr
    m_theta = 2 * order + 2
    theta = (np.arange(m_theta) + 0.5) * (2.0 * np.pi / m_theta)
    qt = np.full(m_theta, 2.0 * np.pi / m_theta)
    nodes = np.stack([np.outer(r, np.cos(theta)).ravel(),
                      np.outer(r, np.sin(theta)).ravel()]).T
    weights = np.outer(qr, qt).ravel()
    mass = 2.0 * np.pi * lam ** (alpha + 2.0) * gamma_moment(alpha + 1.0, 0)
    return QuadratureRule(nodes, weights, "polar", lam, mass,
                          order=(order, m_theta))


def _fold_to_cone(cone: Cone, z: np.ndarray) -> tuple[np.ndarray, float]:
    """Reflect standard-normal draws into the cone; return copies in the
    layout of z and the fold multiplicity (number of preimages, so proposal
    density = mult * phi)."""
    sig = cone.axis_signature()
    if sig is not None:
        x = z.copy(order="K")
        mult = 1.0
        for i, kind in enumerate(sig):
            if kind == "half+":
                x[:, i] = np.abs(x[:, i])
                mult *= 2.0
            elif kind == "half-":
                x[:, i] = -np.abs(x[:, i])
                mult *= 2.0
        return x, mult
    if len(cone.normals) == 1:
        # point reflection through the origin maps the open halfspace
        # opposite the normal onto the cone
        dots = z @ np.asarray(cone.normals[0])
        x = np.where((dots < 0)[:, None], -z, z)
        return x, 2.0
    raise UnsupportedRuleError(
        f"no Monte Carlo proposal for a cone with {len(cone.normals)} "
        "facets that are not all axis hyperplanes")


def _mc_rule(weight: Weight, lam: float, samples: int, seed: int) -> QuadratureRule:
    dim = weight.dim
    alpha = weight.degree if weight.degree is not None else 0.0
    sigma = lam * math.sqrt((dim + alpha) / dim) * 1.1
    rng = np.random.Generator(np.random.Philox(key=seed))
    # the (samples, dim) draws of the stream, stored axis-first
    z = np.asfortranarray(sigma * rng.standard_normal((samples, dim)))
    x, mult = _fold_to_cone(weight.cone, z)
    r2 = np.sum(x ** 2, axis=1)
    log_prop = (-0.5 * r2 / sigma ** 2
                - dim * math.log(sigma * math.sqrt(2.0 * math.pi))
                + math.log(mult))
    log_target = weight.spec.log_w(x) - 0.5 * r2 / lam ** 2
    log_ratio = log_target - log_prop
    good = np.isfinite(log_ratio)  # zero-set hits carry zero weight
    w = np.zeros(samples)
    w[good] = np.exp(log_ratio[good]) / samples
    inside = weight.cone.is_interior(x, tol=1e-300)
    w[~inside] = 0.0
    return QuadratureRule(x, w, "monte_carlo", lam, float(np.sum(w)),
                          mc=McInfo(seed=seed, samples=samples, proposal_sigma=sigma))


# Rules keyed by ((spec, dim, cone), lambda of the cached rule, settings); specs
# and cones are frozen dataclasses, so equal ones share an entry.  The oldest
# entry is dropped past RULE_CACHE_ENTRIES, so memory does not grow with the
# number of scales visited.
RULE_CACHE_ENTRIES = 16
_RULE_CACHE: dict[tuple, QuadratureRule] = {}


def _cached(key: tuple, make: Callable[[], QuadratureRule | None]
            ) -> QuadratureRule | None:
    rule = _RULE_CACHE.get(key)
    if rule is None:
        rule = make()
        if rule is not None:
            _RULE_CACHE[key] = rule
            if len(_RULE_CACHE) > RULE_CACHE_ENTRIES:
                del _RULE_CACHE[next(iter(_RULE_CACHE))]
    return rule


def build_rule(weight: Weight, lam: float = 1.0, order: int | None = None,
               mc_samples: int | None = None, seed: int = 0) -> QuadratureRule:
    """Quadrature rule for the density w(x) exp(-|x|^2/(2 lambda^2)) dx.

    Tensor and polar rules are used where they apply; otherwise, or when
    `mc_samples` is given, a Monte Carlo rule."""
    if lam <= 0:
        raise ParameterError("scale lambda must be positive")
    # homogeneous weights rescale exactly: nodes -> lam t, weights ->
    # lam^{n+alpha} q (the MC proposal scales with lam too), so one lam = 1
    # rule per weight and settings serves every scale at O(N) per call
    base_lam = 1.0 if weight.degree is not None else lam
    key = (weight.spec, weight.dim, weight.cone)
    base = None
    if mc_samples is None:
        order = DEFAULT_ORDER if order is None else order
        base = _cached((key, base_lam, order, "det"),
                       lambda: _tensor_rule(weight, base_lam, order)
                       or _polar_rule(weight, base_lam, order))
        mc_samples = DEFAULT_MC_SAMPLES
    if base is None:
        base = _cached((key, base_lam, mc_samples, seed, "mc"),
                       lambda: _mc_rule(weight, base_lam, mc_samples, seed))
    if lam == base.scale:
        return base
    factor = lam ** (weight.dim + weight.degree)
    mc = None if base.mc is None else replace(
        base.mc, proposal_sigma=base.mc.proposal_sigma * lam)
    return replace(base, nodes=base.nodes * lam, weights=base.weights * factor,
                   scale=lam, mass=base.mass * factor, mc=mc)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Measure:
    """mu_{w,lambda} on its quadrature rule; normalization = 1 / Z.

    order, mc_samples and seed are the rule settings exactly as make_measure
    received them; every other rule of the run is built from them.  Like
    the moment table, the measure keeps one order-1 field jet at its nodes:
    the last field's, so the checks on one field share it."""

    weight: Weight
    scale: float
    rule: QuadratureRule
    normalization: float
    order: int
    mc_samples: int | None
    seed: int
    _moments: list = field(default_factory=list, init=False, compare=False)
    _jet: list = field(default_factory=list, init=False, compare=False)

    @property
    def cone(self) -> Cone:
        return self.weight.cone

    @property
    def dim(self) -> int:
        return self.weight.dim

    @property
    def nodes(self) -> np.ndarray:
        return self.rule.nodes

    @cached_property
    def norm_weights(self) -> np.ndarray:
        """Quadrature weights of the probability measure (sum to one);
        computed once, read-only."""
        w = self.rule.weights * self.normalization
        w.setflags(write=False)
        return w

    def node_jet(self, f) -> tuple[np.ndarray, np.ndarray]:
        """f.jet(nodes, 1), the (N,) values and (N, n) gradients of f at the
        nodes, read-only.  The last field's jet is kept, keyed by the field
        object itself, so memory stays bounded by one field's jet."""
        if not self._jet or self._jet[0] is not f:
            jet = f.jet(self.nodes, 1)
            for arr in jet:
                arr.setflags(write=False)
            self._jet[:] = [f, jet]
        return self._jet[1]

    def rule_at(self, lam: float) -> QuadratureRule:
        """The rule of this measure's settings for w exp(-|x|^2/(2 lam^2)) dx."""
        return build_rule(self.weight, lam, order=self.order,
                          mc_samples=self.mc_samples, seed=self.seed)

    def at_scale(self, lam: float) -> Measure:
        """mu_{w,lam} on a rule of the same settings."""
        return make_measure(self.weight, lam, self.order, self.mc_samples,
                            self.seed)

    def moments(self, degree: int) -> np.ndarray:
        """M_g = sum_i q_i t_i^g on the lambda = 1 rule (t_i, q_i) of this
        measure's settings for every row g of exponent_table(n, degree), in
        order; cached, the highest degree asked for serves lower ones."""
        size = math.comb(self.dim + degree, degree)
        if not self._moments or len(self._moments[0]) < size:
            rule = self.rule_at(1.0)
            table = np.zeros(size)
            for k in range(0, len(rule.weights), MOMENT_CHUNK):
                chunk = slice(k, k + MOMENT_CHUNK)
                table += monomial_table(rule.nodes[chunk], degree) @ rule.weights[chunk]
            self._moments[:] = [table]
        return self._moments[0][:size]


def make_measure(weight: Weight, scale: float = 1.0,
                 order: int = DEFAULT_ORDER, mc_samples: int | None = None,
                 seed: int = 0) -> Measure:
    rule = build_rule(weight, scale, order=order, mc_samples=mc_samples, seed=seed)
    z = rule.mass
    if not np.isfinite(z) or z <= 0:
        raise IntegrationFailureError("normalization is not positive/finite")
    return Measure(weight, scale, rule, 1.0 / z, order, mc_samples, seed)


def partition_function(measure: Measure) -> float:
    """Z(w, 1) = integral of w exp(-|x|^2/2) over the cone: the mass of the
    lambda = 1 rule of the measure's settings, whatever its own scale."""
    return measure.rule_at(1.0).mass


def _node_values(measure: Measure, f) -> np.ndarray:
    """The finite values of f at the nodes with the node axis last and
    contiguous (a view for axis-first values), so every component is summed
    pairwise exactly as the same integrand alone would be."""
    vals = np.asarray(f(measure.nodes) if callable(f) else f, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("integrand is not finite at a quadrature node")
    return np.ascontiguousarray(np.moveaxis(vals, 0, -1))


def integrate(measure: Measure, f) -> float | np.ndarray:
    """Integral of f against mu: f is a callable on the (N, n) nodes or the
    array of its values there.  (N,) values give a float; (N, ...) values
    give the (...) array of the integrals of their components."""
    est = np.sum(_node_values(measure, f) * measure.norm_weights, axis=-1)
    return float(est) if est.ndim == 0 else est


def integrate_with_error(measure: Measure, f
                         ) -> tuple[float | np.ndarray, float | np.ndarray]:
    """The integral of `integrate` plus the standard-error estimate of each
    component (Monte Carlo rules; zero for deterministic rules)."""
    vals = _node_values(measure, f)
    w = measure.norm_weights
    est = np.sum(vals * w, axis=-1)
    if measure.rule.kind == "monte_carlo":
        se = np.sqrt(np.sum((w * (vals - est[..., None])) ** 2, axis=-1))
    else:
        se = np.zeros_like(est)
    return (float(est), float(se)) if est.ndim == 0 else (est, se)


@dataclass(frozen=True)
class SpecialMoments:
    second_moment: float           # integral of |x|^2 dmu
    axis_moments: tuple[float, ...]  # per-axis integral of x_k^2 dmu


def special_moments(measure: Measure) -> SpecialMoments:
    axis = tuple(float(m) for m in integrate(measure, measure.nodes ** 2))
    return SpecialMoments(second_moment=float(sum(axis)), axis_moments=axis)


# ---------------------------------------------------------------------------
# rate-matched unnormalized integrals
# ---------------------------------------------------------------------------

def nu_integral(measure: Measure, integrand: Callable[[np.ndarray], np.ndarray],
                rate: float) -> float | np.ndarray:
    """Integral of integrand(x) w(x) dx for integrands ~ (slow factor) *
    exp(-rate |x|^2), on the rule of the measure's settings whose Gaussian
    factor matches the rate exactly; the measure's own scale plays no part.

    An integrand returning (N, ...) at the N nodes gives the (...) array of
    the integrals of its components; (N,) gives a float."""
    if not rate > 0:
        raise DecayContractError("nu-integration needs a positive Gaussian rate")
    rule = measure.rule_at(1.0 / math.sqrt(2.0 * rate))
    vals = np.asarray(integrand(rule.nodes), dtype=float)
    # node axis last and contiguous, so every component is summed pairwise
    # exactly as the same integrand alone would be
    gauss = np.exp(rate * np.sum(rule.nodes ** 2, axis=1))
    folded = np.multiply(np.moveaxis(vals, 0, -1), gauss, order="C")
    if not np.all(np.isfinite(folded)):
        raise EvaluationError("folded integrand is not finite at a node")
    folded *= rule.weights
    total = np.sum(folded, axis=-1)
    return float(total) if total.ndim == 0 else total


def nu_monomials(measure: Measure, left: np.ndarray, right: np.ndarray,
                 rate: float | np.ndarray) -> np.ndarray:
    """int x^a x^b exp(-rate |x|^2) w(x) dx for every row a of the (A, n)
    and b of the (B, n) exponent arrays: (A, B), or (K, A, B) for a 1-D
    array of K rates.  The rate-matched rule is the lambda = 1 rule (t, q)
    rescaled by s = 1/sqrt(2 rate) as build_rule rescales it, so this is the
    same quadrature sum, s^{n+alpha+|a+b|} M_{a+b} with M = Measure.moments."""
    weight = measure.weight
    if weight.degree is None:
        raise NotHomogeneousError("monomial moments need a homogeneous weight")
    rates = np.asarray(rate, dtype=float)
    if not np.all(rates > 0):
        raise DecayContractError("nu-integration needs a positive Gaussian rate")
    expo = np.asarray(left)[:, None, :] + np.asarray(right)[None, :, :]
    total = expo.sum(axis=-1)
    degree = int(total.max())
    moments = measure.moments(degree)[monomial_index(expo, degree)]
    s = 1.0 / np.sqrt(2.0 * rates)
    return s[..., None, None] ** (weight.dim + weight.degree + total) * moments
