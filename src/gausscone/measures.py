"""The probability measures mu_{w,lambda} = w(x) exp(-|x|^2/(2 lambda^2)) dx / Z
on quadrature rules, and rate-matched integrals against nu = w dx.

Rule families:

* product rules: the product of one rule per block of `Weight.spec.blocks`,
  the last block varying fastest.  A 1-D block |t|^a e^(-s t^2/2) gets a
  generalized Gauss-Hermite rule on the full line or on the half line of
  the cone's axis signature; a radial block on two coordinates the cone
  leaves free gets the polar rule (generalized half-line Hermite in r,
  trapezoid in the angle).  With 1-D blocks only it is a tensor rule
  (monomial, axis-aligned Dunkl, 1-D radial, Gaussian tilts and partial
  products of these), with a polar block a polar rule.  Both are exact for
  polynomial-times-Gaussian integrands, and keep their factors as
  `QuadratureRule.blocks` for sum-factorized code (`spectral`);
* a seeded self-normalized importance-sampling rule targeting the density
  w exp(-|x|^2/(2 lambda^2)), when the settings ask for it (`mc_samples`).
  Sampling uses the counter-based Philox generator, so a (seed, samples)
  pair reproduces the rule exactly.  Gaussian draws are folded into the
  cone: |.| per axis when every normal is a signed axis vector, a point
  reflection when the cone has one tilted normal.

Without `mc_samples`, a weight with no product rule on its cone (general
Dunkl and custom weights, radial weights past the plane) is refused with
UnsupportedRuleError; there is no silent Monte Carlo fallback.

A `Measure` holds the weight together with the rule settings it was made
with (the order, or the Monte Carlo sample count and seed), and every rule
of a run comes from those settings: `Measure.rule_at` is the rule of the
same family at any scale.  A rule stores its weights once; 1/Z is applied
after a sum.  There are three kinds of integral, each with one entry point.
Every integral against mu goes through `integrate`.  Every integral against
nu = w dx of an integrand slow(x) exp(-rate |x|^2) goes through
`nu_integral(measure, slow, rate)`: it takes the slow factor, never the
Gaussian, and sums it on the rule of the measure's settings whose Gaussian
factor is exp(-rate |x|^2) (the measure's own scale plays no part), so a
polynomial slow factor is integrated exactly and no Gaussian is formed at a
node.  For a homogeneous weight `nu_monomials` gives the integrals of
monomials times a Gaussian of any rate from one cached table of the
lambda = 1 rule's moments, `Measure.moments`.

Point batches are stored axis-first: a rule's (N, n) `nodes` is the `.T`
view of a C-contiguous (n, N) buffer, so each coordinate is one contiguous
row and a reduction over the short axis (|x|^2, a dot product, a trace)
runs along the nodes.  Every (N, ...) array built at the nodes (field jets,
weight derivatives, the checkers' stacked integrands) follows the same rule,
so moving its node axis last is a contiguous copy; any layout is accepted.

Passes over a rule's nodes run NODE_BLOCK nodes at a time, so a pass holds
the rule, one field jet and one block's temporaries.  `integrate`,
`integrate_with_error` and `nu_integral` share one weighted sum: it calls a
callable integrand (for `nu_integral`, the slow factor) on one block of
nodes (and the block's rows of any node-aligned arrays it is given, such as
a field's jet), checks the block finite, weights it and sums it, and adds
the block sums in block order.  A sum is therefore block sums added in
order: a rule of one block (every product rule of at most NODE_BLOCK nodes)
sums as one whole-array sum did; on more blocks the result depends on
NODE_BLOCK, a fixed constant, and stays byte-identical across reruns.  The
standard error merges per-block (sum q^2, q^2-weighted mean, centred sum of
squares) triples.  On a homogeneous weight `nu_integral` takes each block
of the cached lambda = 1 rule to the matched scale as build_rule would
(nodes times lambda, weights times lambda^(n+alpha)), so no rescaled rule is
built.  The Monte Carlo rule is drawn and folded block by block into its
final arrays, and `Measure.node_jet` fills a field's order-1 jet block by
block after dropping the previous field's jet and the integrals kept with
it (`Measure.field_integral`).  (A polynomial of two or more terms contracts
its monomial table with BLAS, whose rounding at a node can move by an ulp or
a few with the batch size and the thread count.  The CLI runs BLAS on one
thread, so there only the batch size can move a jet's last ulp.)
`Measure.moments` keeps its own MOMENT_CHUNK: its monomial table has up to
924 rows (6-D at degree 6), so one chunk of NODE_BLOCK nodes would double
from 30 to 60 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .cones import Cone
from .errors import (
    ContractError,
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
from .weights import Block, Weight

DEFAULT_ORDER = 32
MAX_TENSOR_NODES = 4_000_000
# nodes per block of a pass over a rule's nodes (the weighted sum, the Monte
# Carlo draw, the field jets of node_jet): a block's temporaries stay in
# cache and their memory does not grow with the rule; a multi-block sum
# depends on this value
NODE_BLOCK = 2 ** 13
# nodes per block of the monomial table of Measure.moments, whose rows
# (up to 924 in 6-D at degree 6) make a block far wider than a NODE_BLOCK one
MOMENT_CHUNK = 2 ** 12


@dataclass(frozen=True)
class McInfo:
    seed: int
    samples: int
    proposal_sigma: float


@dataclass(frozen=True)
class BlockRule:
    """The rule of one block of a product rule: (k, m) nodes on the block's
    k coordinates, (m,) weights and the exact mass of the block's factor;
    for a 1-D block also its exponent a and effective Gaussian scale."""

    coords: tuple[int, ...]
    nodes: np.ndarray
    weights: np.ndarray
    mass: float
    a: float
    scale: float


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights integrating against w(x) exp(-|x|^2/(2 lambda^2)) dx."""

    nodes: np.ndarray          # (N, n) axis-first, strictly interior to the cone
    weights: np.ndarray        # (N,), positive
    kind: str                  # "tensor_generalized_hermite" | "polar"
                               # (a product with a polar block) | "monte_carlo"
    scale: float               # lambda of the Gaussian factor
    mass: float                # exact for product rules, sum of weights for MC
    mc: Optional[McInfo] = None
    # a product rule's factors, in block order (nodes and weights are their
    # product, the last block varying fastest); empty for Monte Carlo rules
    blocks: tuple[BlockRule, ...] = ()


def _axis_block(block: Block, kind: str, lam: float, order: int) -> BlockRule:
    """|t|^a e^(-s t^2/2) e^(-t^2/(2 lam^2)) on a full or a half line."""
    a = float(block.a)
    gamma = 1.0 / (lam * lam) + block.s
    if gamma <= 0:
        raise IntegrationFailureError(
            f"density w exp(-|x|^2/(2*{lam}^2)) has infinite mass "
            f"(axis tilt {block.s})")
    lam_eff = 1.0 / math.sqrt(gamma)
    if kind == "full":
        t, q = fullline_rule(a, order)
    else:
        t, q = halfline_rule(a, order)
        if kind == "half-":
            t = -t
    s = lam_eff ** (a + 1.0)
    m0 = gamma_moment(a, 0) * s
    return BlockRule(block.coords, (lam_eff * t)[None, :], s * q,
                     2.0 * m0 if kind == "full" else m0, a, lam_eff)


def _polar_block(block: Block, lam: float, order: int) -> BlockRule:
    """|x_B|^a e^(-|x_B|^2/(2 lam^2)) on a plane: the half-line rule in r
    for r^(a+1), times a (2 order + 2)-point trapezoid in the angle."""
    alpha = block.a
    r, qr = halfline_rule(float(alpha) + 1.0, order)
    r = lam * r
    qr = lam ** (alpha + 2.0) * qr
    m_theta = 2 * order + 2
    theta = (np.arange(m_theta) + 0.5) * (2.0 * np.pi / m_theta)
    qt = np.full(m_theta, 2.0 * np.pi / m_theta)
    nodes = np.stack([np.outer(r, np.cos(theta)).ravel(),
                      np.outer(r, np.sin(theta)).ravel()])
    mass = 2.0 * np.pi * lam ** (alpha + 2.0) * gamma_moment(alpha + 1.0, 0)
    return BlockRule(block.coords, nodes, np.outer(qr, qt).ravel(), mass,
                     alpha, lam)


def _product_rule(weight: Weight, lam: float, order: int) -> QuadratureRule | None:
    """The product of one rule per block of `Weight.spec.blocks` for
    w exp(-|x|^2/(2 lambda^2)) dx, the last block varying fastest and the
    weights multiplied in block order; None when a block has no rule on the
    cone.  A 1-D block gets the half- or full-line rule of the cone's axis
    signature, unless w vanishes on an axis the cone leaves free (the
    support would not be a convex cone); a radial block on two free
    coordinates gets the polar rule."""
    blocks = weight.spec.blocks(weight.dim)
    sig = weight.cone.axis_signature()
    if sig is None:
        return None
    size = 1
    for b in blocks:
        kinds = {sig[c] for c in b.coords}
        if b.kind == "axis" and not (b.a > 0 and kinds == {"full"}):
            size *= order
        elif b.kind == "radial" and len(b.coords) == 2 and kinds == {"full"}:
            size *= order * (2 * order + 2)
        else:
            return None
    if size > MAX_TENSOR_NODES:
        raise ResourceError(
            f"product rule would need {size} nodes, more than "
            f"{MAX_TENSOR_NODES}; lower quadrature.order or set "
            "quadrature.mc_samples to integrate by Monte Carlo")
    rules = tuple(_axis_block(b, sig[b.coords[0]], lam, order)
                  if b.kind == "axis" else _polar_block(b, lam, order)
                  for b in blocks)
    sizes = [len(b.weights) for b in rules]
    nodes = np.empty((weight.dim, *sizes))
    weights = np.ones(())
    for i, b in enumerate(rules):
        shape = [-1 if j == i else 1 for j in range(len(rules))]
        nodes[list(b.coords)] = b.nodes.reshape(len(b.coords), *shape)
        weights = weights * b.weights.reshape(shape)
    kind = ("polar" if any(len(b.coords) == 2 for b in rules)
            else "tensor_generalized_hermite")
    return QuadratureRule(nodes.reshape(weight.dim, -1).T, weights.ravel(),
                          kind, lam, math.prod(b.mass for b in rules),
                          blocks=rules)


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
    """The importance-sampling rule of `samples` Philox draws, drawn and
    folded NODE_BLOCK rows at a time into the final axis-first nodes and
    weights: the stream's blocks are its one whole draw row for row, and
    every step after the draw acts on one node, so the rule is the one a
    single draw gives bit for bit."""
    dim = weight.dim
    alpha = weight.degree if weight.degree is not None else 0.0
    sigma = lam * math.sqrt((dim + alpha) / dim) * 1.1
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = np.empty((dim, samples)).T
    w = np.zeros(samples)
    for k in range(0, samples, NODE_BLOCK):
        block = slice(k, min(k + NODE_BLOCK, samples))
        # the block's (rows, dim) draws of the stream, stored axis-first
        z = np.asfortranarray(
            sigma * rng.standard_normal((block.stop - k, dim)))
        xb, mult = _fold_to_cone(weight.cone, z)
        x[block] = xb
        r2 = np.sum(xb ** 2, axis=1)
        log_prop = (-0.5 * r2 / sigma ** 2
                    - dim * math.log(sigma * math.sqrt(2.0 * math.pi))
                    + math.log(mult))
        log_ratio = weight.spec.log_w(xb) - 0.5 * r2 / lam ** 2 - log_prop
        good = np.isfinite(log_ratio)  # zero-set hits carry zero weight
        wb = w[block]
        wb[good] = np.exp(log_ratio[good]) / samples
        wb[~weight.cone.is_interior(xb, tol=1e-300)] = 0.0
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
    """Quadrature rule for the density w(x) exp(-|x|^2/(2 lambda^2)) dx: the
    Monte Carlo rule when `mc_samples` is given, otherwise the product rule
    of the weight's blocks, or UnsupportedRuleError when it has none."""
    if lam <= 0:
        raise ParameterError("scale lambda must be positive")
    # homogeneous weights rescale exactly: nodes -> lam t, weights ->
    # lam^{n+alpha} q (the MC proposal and each block scale with lam too),
    # so one lam = 1 rule per weight and settings serves every scale at
    # O(N) per call
    base_lam = 1.0 if weight.degree is not None else lam
    key = (weight.spec, weight.dim, weight.cone)
    if mc_samples is not None:
        if mc_samples > MAX_TENSOR_NODES:
            raise ResourceError(
                f"quadrature.mc_samples {mc_samples} exceeds the cap of "
                f"{MAX_TENSOR_NODES} nodes")
        base = _cached((key, base_lam, mc_samples, seed, "mc"),
                       lambda: _mc_rule(weight, base_lam, mc_samples, seed))
    else:
        order = DEFAULT_ORDER if order is None else order
        base = _cached((key, base_lam, order, "det"),
                       lambda: _product_rule(weight, base_lam, order))
        if base is None:
            raise UnsupportedRuleError(
                f"no deterministic rule for {weight.spec!r} on the cone with "
                f"normals {weight.cone.normals}: its density is not a product "
                "of 1-D and planar radial blocks that the cone admits; set "
                "quadrature.mc_samples to integrate by Monte Carlo")
    if lam == base.scale:
        return base
    factor = lam ** (weight.dim + weight.degree)
    mc = None if base.mc is None else replace(
        base.mc, proposal_sigma=base.mc.proposal_sigma * lam)
    # a block of exponent a on k coordinates scales by lam^(k + a)
    blocks = tuple(replace(b, nodes=b.nodes * lam,
                           weights=b.weights * lam ** (len(b.coords) + b.a),
                           mass=b.mass * lam ** (len(b.coords) + b.a),
                           scale=b.scale * lam)
                   for b in base.blocks)
    return replace(base, nodes=base.nodes * lam, weights=base.weights * factor,
                   scale=lam, mass=base.mass * factor, mc=mc, blocks=blocks)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Measure:
    """mu_{w,lambda} on its quadrature rule; normalization = 1 / Z.

    order, mc_samples and seed are the rule settings exactly as make_measure
    received them; every other rule of the run is built from them.  Like
    the moment table, the measure keeps its barycenter int x dmu, its
    covariance Cov(x) beside it, and one order-1 field jet at its nodes:
    the last field's, together with the integrals the checks have taken
    from it (scalars and n-vectors, keyed by what they are), so the checks
    on one field share the jet and take each integral once."""

    weight: Weight
    scale: float
    rule: QuadratureRule
    normalization: float
    order: int
    mc_samples: int | None
    seed: int
    _moments: list = field(default_factory=list, init=False, compare=False)
    _kept: dict = field(default_factory=dict, init=False, compare=False)
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

    def node_jet(self, f) -> tuple[np.ndarray, np.ndarray]:
        """f.jet(nodes, 1), the (N,) values and (N, n) gradients of f at the
        nodes, taken NODE_BLOCK nodes at a time, read-only.  The last
        field's jet is kept, keyed by the field object itself, so memory
        stays bounded by one field's jet."""
        if not self._jet or self._jet[0] is not f:
            # the last field's jet and integrals go before the next is made
            self._jet.clear()
            size, dim = self.nodes.shape
            vals = np.empty(size)
            grad = np.empty((dim, size)).T
            for k in range(0, size, NODE_BLOCK):
                block = slice(k, k + NODE_BLOCK)
                vals[block], grad[block] = f.jet(self.nodes[block], 1)
            for arr in (vals, grad):
                arr.setflags(write=False)
            self._jet[:] = [f, (vals, grad), {}]
        return self._jet[1]

    def field_integral(self, f, key: tuple, make: Callable):
        """make(vals, grad) on the `node_jet` of f, kept with the jet under
        `key` until the next field's jet is taken: a check asks for an
        integral by what it is (say ("energy", q)), and every check on the
        same field after it reads the kept value (an array read-only)."""
        vals, grad = self.node_jet(f)
        return _keep(self._jet[2], key, lambda: make(vals, grad))

    def barycenter(self) -> np.ndarray:
        """int x dmu, the (n,) barycenter, read-only; cached."""
        return _keep(self._kept, "barycenter", lambda: integrate(self, lambda x: x))

    def covariance(self) -> np.ndarray:
        """Cov(x) = int (x - m)(x - m)^T dmu, m the barycenter, the (n, n)
        matrix, read-only; cached beside the barycenter."""
        mx = self.barycenter()
        return _keep(self._kept, "covariance", lambda: integrate(
            self, lambda x: (x - mx)[:, :, None] * (x - mx)[:, None]))

    def rule_at(self, lam: float) -> QuadratureRule:
        """The rule of this measure's settings for w exp(-|x|^2/(2 lam^2)) dx."""
        return build_rule(self.weight, lam, order=self.order,
                          mc_samples=self.mc_samples, seed=self.seed)

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


def _keep(store: dict, key, make: Callable):
    """store[key], made by make() when first asked for; an array read-only."""
    if key not in store:
        value = make()
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        store[key] = value
    return store[key]


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


def _node_blocks(rule: QuadratureRule, f, arrays: tuple = (), lam: float = 1.0,
                 factor: float = 1.0):
    """Yield (g, q) for each NODE_BLOCK block of the rule's nodes, in order:
    the (..., b) values g of f, node axis last, contiguous and checked
    finite, and the block's (b,) weights.  f is a callable, called as
    f(x, *blocks) on the axis-first nodes x of the block and the block's
    rows of the node-aligned `arrays`, or the (N, ...) array of its values.
    lam != 1 takes each block of a homogeneous weight's rule to scale lam as
    build_rule does: nodes times lam, weights times factor = lam^(n+alpha)."""
    size = len(rule.weights)
    if not callable(f):
        f = np.asarray(f, dtype=float)
        arrays = (f,)
        if f.ndim == 0 or len(f) != size:
            raise ContractError(
                f"integrand must give one value per node, shape ({size}, ...) "
                f"at {size} nodes; got shape {f.shape}")
    for a in arrays:
        if len(a) != size:
            raise ContractError(
                f"node-aligned array has {len(a)} rows for {size} nodes")
    tail = None
    for k in range(0, size, NODE_BLOCK):
        block = slice(k, k + NODE_BLOCK)
        pts, q = rule.nodes[block], rule.weights[block]
        if lam != 1.0:
            pts, q = pts * lam, q * factor
        rows = [a[block] for a in arrays]
        vals = np.asarray(f(pts, *rows) if callable(f) else rows[0], dtype=float)
        if vals.ndim == 0 or len(vals) != len(pts) or tail not in (
                None, vals.shape[1:]):
            want = f"({len(pts)}, ...)" if tail is None else str((len(pts), *tail))
            raise ContractError(
                f"integrand must give one value per node, shape {want} at "
                f"{len(pts)} nodes; got shape {vals.shape}")
        tail = vals.shape[1:]
        # the ndarray forms of moveaxis and np.all: the same operations
        # without the Python wrappers paid once per block
        g = np.ascontiguousarray(vals.transpose((*range(1, vals.ndim), 0)))
        if not np.isfinite(g).all():
            raise EvaluationError("integrand is not finite at a quadrature node")
        yield g, q


def _weighted_sum(rule: QuadratureRule, f, arrays: tuple = (),
                  scale: float = 1.0, lam: float = 1.0, factor: float = 1.0,
                  spread: bool = False):
    """(scale * sum_i q_i g_i, spread) over the `_node_blocks` of the rule:
    each block is weighted and summed as np.add.reduce(g * q, axis=-1) (the
    reduction np.sum runs, without its wrapper), the block sums added in
    block order, so no (..., N) buffer is held and a one-block rule sums as
    one whole-array sum.  (N,) values give a float.  With
    `spread`, also the (sum q^2, q^2-weighted mean of g, sum q^2 (g - mean)^2)
    of each component, the per-block triples merged as in Chan, Golub and
    LeVeque (1983); None otherwise."""
    total = moments = None
    for g, q in _node_blocks(rule, f, arrays, lam, factor):
        part = np.add.reduce(g * q, axis=-1)
        total = part if total is None else total + part
        if spread:
            q2 = q * q
            w = float(np.sum(q2))
            if w == 0.0:
                continue
            mean = np.sum(g * q2, axis=-1) / w
            dev = g - np.expand_dims(mean, -1)
            block = (w, mean, np.sum(dev * dev * q2, axis=-1))
            moments = block if moments is None else _merge(moments, block)
    total = total * scale
    return (float(total) if total.ndim == 0 else total), moments


def _merge(a: tuple, b: tuple) -> tuple:
    """The (weight, mean, centred sum of squares) of two merged parts."""
    (wa, ma, ca), (wb, mb, cb) = a, b
    w = wa + wb
    d = mb - ma
    return w, ma + d * (wb / w), ca + cb + d * d * (wa * wb / w)


def integrate(measure: Measure, f, *arrays) -> float | np.ndarray:
    """Integral of f against mu: f is a callable on (N, n) nodes or the
    array of its values at the nodes; with node-aligned `arrays` (a jet at
    the nodes, say), f(x, *rows) is called on each block of nodes and the
    block's rows.  (N,) values give a float; (N, ...) values give the (...)
    array of the integrals of their components."""
    return _weighted_sum(measure.rule, f, arrays, scale=measure.normalization)[0]


def integrate_with_error(measure: Measure, f, *arrays
                         ) -> tuple[float | np.ndarray, float | np.ndarray]:
    """The integral of `integrate` plus the standard-error estimate of each
    component (Monte Carlo rules; zero for deterministic rules)."""
    if measure.rule.kind != "monte_carlo":
        est = integrate(measure, f, *arrays)
        return est, (0.0 if np.ndim(est) == 0 else np.zeros_like(est))
    est, (w, mean, centred) = _weighted_sum(
        measure.rule, f, arrays, scale=measure.normalization, spread=True)
    # sum_i q_i^2 (f_i - est)^2, split at the q^2-weighted mean of f
    se = np.sqrt(centred + w * (mean - est) ** 2) * measure.normalization
    return est, (float(se) if np.ndim(se) == 0 else se)


@dataclass(frozen=True)
class SpecialMoments:
    second_moment: float           # integral of |x|^2 dmu
    axis_moments: tuple[float, ...]  # per-axis integral of x_k^2 dmu


def special_moments(measure: Measure) -> SpecialMoments:
    axis = tuple(float(m) for m in integrate(measure, lambda x: x ** 2))
    return SpecialMoments(second_moment=float(sum(axis)), axis_moments=axis)


# ---------------------------------------------------------------------------
# rate-matched unnormalized integrals
# ---------------------------------------------------------------------------

def nu_integral(measure: Measure, slow: Callable[[np.ndarray], np.ndarray],
                rate: float) -> float | np.ndarray:
    """int slow(x) exp(-rate |x|^2) w(x) dx from the slow factor alone, as
    sum_i q_i slow(x_i) on the rule of the measure's settings for
    w exp(-rate |x|^2) dx; the measure's own scale plays no part.  On a
    homogeneous weight the rule is the cached lambda = 1 rule taken to that
    scale block by block.

    A slow factor returning (N, ...) at the N nodes it is called on gives
    the (...) array of the integrals of its components; (N,) gives a float.
    It is called NODE_BLOCK nodes at a time (see `_weighted_sum`)."""
    if not rate > 0:
        raise DecayContractError("nu-integration needs a positive Gaussian rate")
    lam = 1.0 / math.sqrt(2.0 * rate)
    weight = measure.weight
    if weight.degree is None:
        return _weighted_sum(measure.rule_at(lam), slow)[0]
    return _weighted_sum(measure.rule_at(1.0), slow, lam=lam,
                         factor=lam ** (weight.dim + weight.degree))[0]


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
