"""The product rule builder of `measures` and the guard that `order` always
reaches the rule.

* Every schema weight kind, on its natural cone and on each schema cone
  kind, in dims 1-3 at `order` 8, is refused at config load (its zero set
  meets the open cone), refused by the rule builder (no product rule), or
  gets a deterministic rule: never a silent Monte Carlo one.  The free and
  singular axes of every config that loads are pinned in the table.
* Tensor and polar rules equal the meshgrid and r x theta assemblies of
  `oracles` bit for bit, and the polar x Hermite rule of a partial product
  integrates to the Gamma closed form.
* A product rule keeps its blocks, at the cached scale and rescaled: their
  product is the rule; Monte Carlo rules have none.
"""

import numpy as np
import pytest

from gausscone.cones import Halfspace
from gausscone.config import build_weight, parse_config
from gausscone.errors import ConfigError, ResourceError, UnsupportedRuleError
from gausscone.measures import (
    MAX_TENSOR_NODES,
    _product_rule,
    build_rule,
    make_measure,
)
from gausscone.weights import (
    DunklProduct,
    GaussianTilt,
    Monomial,
    PartialProduct,
    Radial,
    make_weight,
)

import oracles


def _weights(dim):
    e0 = [1.0] + [0.0] * (dim - 1)
    out = {
        "one": {"kind": "one"},
        "monomial": {"kind": "monomial", "exponents": [1.5] + [0.0] * (dim - 1)},
        "monomial_all": {"kind": "monomial", "exponents": [0.5, 1.5, 3.0][:dim]},
        "radial": {"kind": "radial", "alpha": 1.0},
        "dunkl_axis": {"kind": "dunkl", "roots": [e0], "multiplicities": [0.75]},
        "gaussian_tilt": {"kind": "gaussian_tilt", "s": 0.5},
        "partial_monomial": {"kind": "partial_product", "coords": [0],
                             "inner": {"kind": "monomial", "exponents": [1.5]}},
    }
    if dim >= 2:
        # a tilted root, and partial products on unsorted coords
        out["dunkl_tilted"] = {"kind": "dunkl",
                               "roots": [[0.6, 0.8] + [0.0] * (dim - 2)],
                               "multiplicities": [0.5]}
        out["partial_monomial"] = {
            "kind": "partial_product", "coords": [dim - 1, 0],
            "inner": {"kind": "monomial", "exponents": [1.5, 0.5]}}
        out["partial_radial"] = {
            "kind": "partial_product", "coords": [dim - 1, 0],
            "inner": {"kind": "radial", "alpha": 1.0}}
    return out


def _cones(dim):
    if dim == 1:
        return {"natural": None, "full_space": {"kind": "full_space"},
                "orthant": {"kind": "orthant"},
                "halfspace": {"kind": "halfspace", "normal": [-1.0]}}
    return {"natural": None, "full_space": {"kind": "full_space"},
            "orthant": {"kind": "orthant"},
            "orthant_0": {"kind": "orthant", "axes": [0]},
            "halfspace": {"kind": "halfspace",
                          "normal": [0.6, 0.8] + [0.0] * (dim - 2)}}


def _guard_config(dim, weight, cone):
    config = {"dim": dim, "weight": _weights(dim)[weight],
              "quadrature": {"order": 8}, "suites": []}
    if _cones(dim)[cone] is not None:
        config["cone"] = _cones(dim)[cone]
    return config


# (dim, weight, cone): (free_axes, singular_axes, outcome), the axes pinned
# for every case whether or not it loads; the outcome is "refused" at config
# load, "unsupported" by the rule builder, or the kind of the rule.
GUARD_TABLE = {
    (1, 'one', 'natural'): ((0,), (), 'tensor'),
    (1, 'one', 'full_space'): ((0,), (), 'tensor'),
    (1, 'one', 'orthant'): ((), (), 'tensor'),
    (1, 'one', 'halfspace'): ((), (), 'tensor'),
    (1, 'monomial', 'natural'): ((), (0,), 'tensor'),
    (1, 'monomial', 'full_space'): ((), (0,), 'refused'),
    (1, 'monomial', 'orthant'): ((), (0,), 'tensor'),
    (1, 'monomial', 'halfspace'): ((), (0,), 'tensor'),
    (1, 'monomial_all', 'natural'): ((), (0,), 'tensor'),
    (1, 'monomial_all', 'full_space'): ((), (0,), 'refused'),
    (1, 'monomial_all', 'orthant'): ((), (0,), 'tensor'),
    (1, 'monomial_all', 'halfspace'): ((), (0,), 'tensor'),
    (1, 'radial', 'natural'): ((), (0,), 'tensor'),
    (1, 'radial', 'full_space'): ((), (0,), 'refused'),
    (1, 'radial', 'orthant'): ((), (0,), 'tensor'),
    (1, 'radial', 'halfspace'): ((), (0,), 'tensor'),
    (1, 'dunkl_axis', 'natural'): ((), (0,), 'tensor'),
    (1, 'dunkl_axis', 'full_space'): ((), (0,), 'refused'),
    (1, 'dunkl_axis', 'orthant'): ((), (0,), 'tensor'),
    (1, 'dunkl_axis', 'halfspace'): ((), (0,), 'tensor'),
    (1, 'gaussian_tilt', 'natural'): ((), (), 'tensor'),
    (1, 'gaussian_tilt', 'full_space'): ((), (), 'tensor'),
    (1, 'gaussian_tilt', 'orthant'): ((), (), 'tensor'),
    (1, 'gaussian_tilt', 'halfspace'): ((), (), 'tensor'),
    (1, 'partial_monomial', 'natural'): ((), (0,), 'tensor'),
    (1, 'partial_monomial', 'full_space'): ((), (0,), 'refused'),
    (1, 'partial_monomial', 'orthant'): ((), (0,), 'tensor'),
    (1, 'partial_monomial', 'halfspace'): ((), (0,), 'tensor'),
    (2, 'one', 'natural'): ((0, 1), (), 'tensor'),
    (2, 'one', 'full_space'): ((0, 1), (), 'tensor'),
    (2, 'one', 'orthant'): ((), (), 'tensor'),
    (2, 'one', 'orthant_0'): ((1,), (), 'tensor'),
    (2, 'one', 'halfspace'): ((), (), 'unsupported'),
    (2, 'monomial', 'natural'): ((1,), (0,), 'tensor'),
    (2, 'monomial', 'full_space'): ((1,), (0,), 'refused'),
    (2, 'monomial', 'orthant'): ((), (0,), 'tensor'),
    (2, 'monomial', 'orthant_0'): ((1,), (0,), 'tensor'),
    (2, 'monomial', 'halfspace'): ((), (0,), 'refused'),
    (2, 'monomial_all', 'natural'): ((), (0, 1), 'tensor'),
    (2, 'monomial_all', 'full_space'): ((), (0, 1), 'refused'),
    (2, 'monomial_all', 'orthant'): ((), (0, 1), 'tensor'),
    (2, 'monomial_all', 'orthant_0'): ((), (0, 1), 'refused'),
    (2, 'monomial_all', 'halfspace'): ((), (0, 1), 'refused'),
    (2, 'radial', 'natural'): ((), (), 'polar'),
    (2, 'radial', 'full_space'): ((), (), 'polar'),
    (2, 'radial', 'orthant'): ((), (), 'unsupported'),
    (2, 'radial', 'orthant_0'): ((), (), 'unsupported'),
    (2, 'radial', 'halfspace'): ((), (), 'unsupported'),
    (2, 'dunkl_axis', 'natural'): ((1,), (0,), 'tensor'),
    (2, 'dunkl_axis', 'full_space'): ((1,), (0,), 'refused'),
    (2, 'dunkl_axis', 'orthant'): ((), (0,), 'tensor'),
    (2, 'dunkl_axis', 'orthant_0'): ((1,), (0,), 'tensor'),
    (2, 'dunkl_axis', 'halfspace'): ((), (0,), 'refused'),
    (2, 'gaussian_tilt', 'natural'): ((), (), 'tensor'),
    (2, 'gaussian_tilt', 'full_space'): ((), (), 'tensor'),
    (2, 'gaussian_tilt', 'orthant'): ((), (), 'tensor'),
    (2, 'gaussian_tilt', 'orthant_0'): ((), (), 'tensor'),
    (2, 'gaussian_tilt', 'halfspace'): ((), (), 'unsupported'),
    (2, 'partial_monomial', 'natural'): ((), (0, 1), 'tensor'),
    (2, 'partial_monomial', 'full_space'): ((), (0, 1), 'refused'),
    (2, 'partial_monomial', 'orthant'): ((), (0, 1), 'tensor'),
    (2, 'partial_monomial', 'orthant_0'): ((), (0, 1), 'refused'),
    (2, 'partial_monomial', 'halfspace'): ((), (0, 1), 'refused'),
    (2, 'dunkl_tilted', 'natural'): ((), (), 'unsupported'),
    (2, 'dunkl_tilted', 'full_space'): ((), (), 'refused'),
    (2, 'dunkl_tilted', 'orthant'): ((), (), 'unsupported'),
    (2, 'dunkl_tilted', 'orthant_0'): ((), (), 'refused'),
    (2, 'dunkl_tilted', 'halfspace'): ((), (), 'unsupported'),
    (2, 'partial_radial', 'natural'): ((), (), 'polar'),
    (2, 'partial_radial', 'full_space'): ((), (), 'polar'),
    (2, 'partial_radial', 'orthant'): ((), (), 'unsupported'),
    (2, 'partial_radial', 'orthant_0'): ((), (), 'unsupported'),
    (2, 'partial_radial', 'halfspace'): ((), (), 'unsupported'),
    (3, 'one', 'natural'): ((0, 1, 2), (), 'tensor'),
    (3, 'one', 'full_space'): ((0, 1, 2), (), 'tensor'),
    (3, 'one', 'orthant'): ((), (), 'tensor'),
    (3, 'one', 'orthant_0'): ((1, 2), (), 'tensor'),
    (3, 'one', 'halfspace'): ((), (), 'unsupported'),
    (3, 'monomial', 'natural'): ((1, 2), (0,), 'tensor'),
    (3, 'monomial', 'full_space'): ((1, 2), (0,), 'refused'),
    (3, 'monomial', 'orthant'): ((), (0,), 'tensor'),
    (3, 'monomial', 'orthant_0'): ((1, 2), (0,), 'tensor'),
    (3, 'monomial', 'halfspace'): ((), (0,), 'refused'),
    (3, 'monomial_all', 'natural'): ((), (0, 1, 2), 'tensor'),
    (3, 'monomial_all', 'full_space'): ((), (0, 1, 2), 'refused'),
    (3, 'monomial_all', 'orthant'): ((), (0, 1, 2), 'tensor'),
    (3, 'monomial_all', 'orthant_0'): ((), (0, 1, 2), 'refused'),
    (3, 'monomial_all', 'halfspace'): ((), (0, 1, 2), 'refused'),
    (3, 'radial', 'natural'): ((), (), 'unsupported'),
    (3, 'radial', 'full_space'): ((), (), 'unsupported'),
    (3, 'radial', 'orthant'): ((), (), 'unsupported'),
    (3, 'radial', 'orthant_0'): ((), (), 'unsupported'),
    (3, 'radial', 'halfspace'): ((), (), 'unsupported'),
    (3, 'dunkl_axis', 'natural'): ((1, 2), (0,), 'tensor'),
    (3, 'dunkl_axis', 'full_space'): ((1, 2), (0,), 'refused'),
    (3, 'dunkl_axis', 'orthant'): ((), (0,), 'tensor'),
    (3, 'dunkl_axis', 'orthant_0'): ((1, 2), (0,), 'tensor'),
    (3, 'dunkl_axis', 'halfspace'): ((), (0,), 'refused'),
    (3, 'gaussian_tilt', 'natural'): ((), (), 'tensor'),
    (3, 'gaussian_tilt', 'full_space'): ((), (), 'tensor'),
    (3, 'gaussian_tilt', 'orthant'): ((), (), 'tensor'),
    (3, 'gaussian_tilt', 'orthant_0'): ((), (), 'tensor'),
    (3, 'gaussian_tilt', 'halfspace'): ((), (), 'unsupported'),
    (3, 'partial_monomial', 'natural'): ((1,), (0, 2), 'tensor'),
    (3, 'partial_monomial', 'full_space'): ((1,), (0, 2), 'refused'),
    (3, 'partial_monomial', 'orthant'): ((), (0, 2), 'tensor'),
    (3, 'partial_monomial', 'orthant_0'): ((1,), (0, 2), 'refused'),
    (3, 'partial_monomial', 'halfspace'): ((), (0, 2), 'refused'),
    (3, 'dunkl_tilted', 'natural'): ((), (), 'unsupported'),
    (3, 'dunkl_tilted', 'full_space'): ((), (), 'refused'),
    (3, 'dunkl_tilted', 'orthant'): ((), (), 'unsupported'),
    (3, 'dunkl_tilted', 'orthant_0'): ((), (), 'refused'),
    (3, 'dunkl_tilted', 'halfspace'): ((), (), 'unsupported'),
    (3, 'partial_radial', 'natural'): ((1,), (), 'polar'),
    (3, 'partial_radial', 'full_space'): ((1,), (), 'polar'),
    (3, 'partial_radial', 'orthant'): ((), (), 'unsupported'),
    (3, 'partial_radial', 'orthant_0'): ((1,), (), 'unsupported'),
    (3, 'partial_radial', 'halfspace'): ((), (), 'unsupported'),
}


def test_guard_table_covers_every_case():
    cases = {(dim, w, c) for dim in (1, 2, 3)
             for w in _weights(dim) for c in _cones(dim)}
    assert cases == set(GUARD_TABLE)


@pytest.mark.parametrize("dim, weight, cone", list(GUARD_TABLE))
def test_order_always_reaches_the_rule(dim, weight, cone):
    free, singular, outcome = GUARD_TABLE[dim, weight, cone]
    try:
        w = build_weight(parse_config(_guard_config(dim, weight, cone)))
    except ConfigError:
        assert outcome == "refused"
        return
    assert (w.free_axes(), w.singular_axes()) == (free, singular)
    try:
        kind = make_measure(w, 1.0, order=8).rule.kind
    except UnsupportedRuleError:
        kind = "unsupported"
    assert kind != "monte_carlo"
    assert {"tensor_generalized_hermite": "tensor"}.get(kind, kind) == outcome


def _dunkl(root):
    return {"kind": "dunkl", "roots": [root], "multiplicities": [0.5]}


# the hyperplane <beta, x> = 0 misses the open cone exactly when beta or
# -beta is a nonnegative combination of the cone's normals
@pytest.mark.parametrize("weight, cone, refused", [
    (_dunkl([0.6, 0.8]), {"kind": "orthant"}, False),
    (_dunkl([-0.6, -0.8]), {"kind": "orthant"}, False),
    (_dunkl([0.6, -0.8]), {"kind": "orthant"}, True),
    (_dunkl([0.6, 0.8]), {"kind": "halfspace", "normal": [-0.6, -0.8]}, False),
    (_dunkl([0.8, -0.6]), {"kind": "halfspace", "normal": [0.6, 0.8]}, True),
    ({"kind": "dunkl", "roots": [[0.6, 0.8]], "multiplicities": [0.0]},
     {"kind": "full_space"}, False),
    ({"kind": "partial_product", "coords": [1],
      "inner": {"kind": "monomial", "exponents": [1.5]}},
     {"kind": "halfspace", "normal": [0.0, -1.0]}, False),
    ({"kind": "partial_product", "coords": [1, 0], "inner": _dunkl([0.6, 0.8])},
     {"kind": "halfspace", "normal": [0.6, 0.8]}, True),
    ({"kind": "partial_product", "coords": [1, 0], "inner": _dunkl([0.6, 0.8])},
     None, False),
])
def test_hypothesis_gate(weight, cone, refused):
    config = {"dim": 2, "weight": weight, "suites": []}
    if cone is not None:
        config["cone"] = cone
    if refused:
        with pytest.raises(ConfigError, match="natural cone"):
            build_weight(parse_config(config))
    else:
        build_weight(parse_config(config))


def test_refusal_names_the_natural_cone():
    config = {"dim": 2, "weight": {"kind": "monomial", "exponents": [1.5, 0]},
              "cone": {"kind": "full_space"}, "suites": []}
    with pytest.raises(ConfigError, match="'orthant', 'axes': \\[0\\]"):
        build_weight(parse_config(config))


# ---------------------------------------------------------------------------
# the builder against the reference assemblies
# ---------------------------------------------------------------------------

# weight, and per axis (exponent, axis kind, tilt) of its density
TENSOR_CASES = [
    (make_weight(Monomial((1.5,)), 1), [(1.5, "half+", 0.0)]),
    (make_weight(Monomial((1.5, 0.0)), 2),
     [(1.5, "half+", 0.0), (0.0, "full", 0.0)]),
    (make_weight(Monomial((1.0, 0.0, 2.5)), 3),
     [(1.0, "half+", 0.0), (0.0, "full", 0.0), (2.5, "half+", 0.0)]),
    (make_weight(Monomial((1.5, 0.0)), 2, cone=Halfspace(2, (-1.0, 0.0))),
     [(1.5, "half-", 0.0), (0.0, "full", 0.0)]),
    (make_weight(GaussianTilt(-0.5), 1), [(0.0, "full", -0.5)]),
    (make_weight(GaussianTilt(0.5), 2), [(0.0, "full", 0.5)] * 2),
    (make_weight(GaussianTilt(2.0), 3), [(0.0, "full", 2.0)] * 3),
    (make_weight(DunklProduct(((1.0,),), (0.75,)), 1), [(1.5, "half+", 0.0)]),
    (make_weight(DunklProduct(((0.0, -1.0),), (0.75,)), 2),
     [(0.0, "full", 0.0), (1.5, "half+", 0.0)]),
    (make_weight(DunklProduct(((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)), (0.25, 1.5)), 3),
     [(0.5, "half+", 0.0), (0.0, "full", 0.0), (3.0, "half+", 0.0)]),
    (make_weight(PartialProduct(Monomial((1.5,)), (1,)), 2),
     [(0.0, "full", 0.0), (1.5, "half+", 0.0)]),
    (make_weight(PartialProduct(Monomial((1.5, 0.5)), (2, 0)), 3),
     [(0.5, "half+", 0.0), (0.0, "full", 0.0), (1.5, "half+", 0.0)]),
    (make_weight(PartialProduct(GaussianTilt(0.5), (2, 0)), 3),
     [(0.0, "full", 0.5), (0.0, "full", 0.0), (0.0, "full", 0.5)]),
]


@pytest.mark.parametrize("lam", [1.0, 0.7])
@pytest.mark.parametrize("weight, axes", TENSOR_CASES)
def test_tensor_rule_matches_meshgrid_bit_for_bit(weight, axes, lam):
    rules = [oracles.axis_rule(a, kind, tilt, lam, 6) for a, kind, tilt in axes]
    nodes, weights = oracles.tensor_grid(*zip(*rules))
    rule = _product_rule(weight, lam, 6)
    assert rule.kind == "tensor_generalized_hermite"
    assert np.array_equal(rule.nodes, nodes)
    assert np.array_equal(rule.weights, weights)
    assert rule.nodes.T.flags.c_contiguous


@pytest.mark.parametrize("lam", [1.0, 0.7])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
def test_polar_rule_matches_r_theta_bit_for_bit(alpha, lam):
    rule = _product_rule(make_weight(Radial(alpha), 2, certify=False), lam, 10)
    nodes, weights = oracles.polar_rule(alpha, lam, 10)
    assert rule.kind == "polar"
    assert np.array_equal(rule.nodes, nodes)
    assert np.array_equal(rule.weights, weights)
    assert rule.nodes.T.flags.c_contiguous


@pytest.mark.parametrize("coords", [(0, 1), (2, 0)])
def test_polar_block_times_axis_is_the_product_of_its_blocks(coords):
    # the radial block sits on the coordinates it acts on, whatever their
    # order, and the free axis varies fastest when it comes last
    rule = _product_rule(make_weight(PartialProduct(Radial(1.0), coords), 3,
                                     certify=False), 1.0, 6)
    plane, q_plane = oracles.polar_rule(1.0, 1.0, 6)
    t, q_t = oracles.axis_rule(0.0, "full", 0.0, 1.0, 6)
    (axis,) = {0, 1, 2} - set(coords)
    nodes = np.empty((len(plane), len(t), 3))
    nodes[:, :, sorted(coords)] = plane[:, None, :]
    nodes[:, :, axis] = t[None, :]
    assert np.array_equal(rule.nodes, nodes.reshape(-1, 3))
    assert np.array_equal(rule.weights, np.outer(q_plane, q_t).ravel())


@pytest.mark.parametrize("a", [0.0, 1.0, 2.5])
def test_polar_times_hermite_closed_form(a):
    # int |x_01|^a x_2^b e^(-|x|^2/2) dx = 2 pi G(a + 1) * 2 G(b) with
    # G(c) = int_0^inf t^c e^(-t^2/2) dt; x_0^2 takes half the radial r^2
    rule = make_measure(make_weight(PartialProduct(Radial(a), (0, 1)), 3,
                                    certify=False), 1.0, order=12).rule
    x = rule.nodes
    for b in (0, 2, 4):
        exact = 2.0 * np.pi * oracles.gamma_moment(a + 1.0, 0) \
            * 2.0 * oracles.gamma_moment(0.0, b)
        got = np.sum(rule.weights * x[:, 2] ** b)
        assert got == pytest.approx(exact, rel=1e-13, abs=0)
        exact_x0 = np.pi * oracles.gamma_moment(a + 1.0, 2) \
            * 2.0 * oracles.gamma_moment(0.0, b)
        got_x0 = np.sum(rule.weights * x[:, 0] ** 2 * x[:, 2] ** b)
        assert got_x0 == pytest.approx(exact_x0, rel=1e-13, abs=0)
    assert rule.mass == pytest.approx(
        4.0 * np.pi * oracles.gamma_moment(a + 1.0, 0)
        * oracles.gamma_moment(0.0, 0), rel=1e-13, abs=0)


def test_node_cap_applies_to_the_product_size():
    # 12^6 nodes would pass the cap, but the polar block on (0, 1) has
    # 12 * 26 nodes, so the product has 12 * 26 * 12^4 > MAX_TENSOR_NODES
    weight = make_weight(PartialProduct(Radial(1.0), (0, 1)), 6, certify=False)
    assert 12 ** 6 <= MAX_TENSOR_NODES < 12 * 26 * 12 ** 4
    with pytest.raises(ResourceError, match=str(12 * 26 * 12 ** 4)):
        _product_rule(weight, 1.0, 12)
    assert _product_rule(weight, 1.0, 6).weights.size == 6 * 14 * 6 ** 4


def _product_of_blocks(rule):
    """(N, n) nodes and (N,) weights of the product of rule.blocks, the
    last block varying fastest, assembled from an index grid."""
    sizes = [len(b.weights) for b in rule.blocks]
    index = np.indices(sizes).reshape(len(sizes), -1)
    nodes = np.empty((index.shape[1], rule.nodes.shape[1]))
    weights = np.ones(index.shape[1])
    for b, i in zip(rule.blocks, index):
        nodes[:, list(b.coords)] = b.nodes[:, i].T
        weights *= b.weights[i]
    return nodes, weights


# tensor, negative half-line, Gaussian-tilt (not homogeneous: built at every
# scale), planar polar, and a 3-D partial product with a polar block
BLOCK_CASES = [
    make_weight(Monomial((1.5, 0.0)), 2),
    make_weight(Monomial((1.5, 0.0)), 2, cone=Halfspace(2, (-1.0, 0.0))),
    make_weight(GaussianTilt(0.5), 2),
    make_weight(Radial(1.0), 2, certify=False),
    make_weight(PartialProduct(Radial(1.0), (0, 1)), 3, certify=False),
]


@pytest.mark.parametrize("lam", [1.0, 1.7])
@pytest.mark.parametrize("weight", BLOCK_CASES,
                         ids=["tensor", "negative_half_line", "tilt", "polar",
                              "partial_polar_3d"])
def test_rule_is_the_product_of_its_blocks(weight, lam):
    rule = build_rule(weight, lam, order=10)
    assert len(rule.blocks) == len(weight.spec.blocks(weight.dim))
    nodes, weights = _product_of_blocks(rule)
    assert np.array_equal(rule.nodes, nodes)
    np.testing.assert_allclose(weights, rule.weights, rtol=1e-15, atol=0)
    assert np.prod([b.mass for b in rule.blocks]) == pytest.approx(
        rule.mass, rel=1e-15, abs=0)
    assert all(b.scale == pytest.approx(lam, rel=1e-15)
               for b in rule.blocks if weight.degree is not None)


def test_monte_carlo_rules_have_no_blocks():
    weight = make_weight(Monomial((1.5, 0.0)), 2)
    for lam in (1.0, 1.7):
        assert build_rule(weight, lam, mc_samples=1000, seed=0).blocks == ()
