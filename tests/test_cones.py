"""The one cone type: a cone is its list of orthonormal inward facet normals.

Random cones take k of the n columns of the Q factor of a Gaussian matrix as
normals, for every n = 1..4 and k = 0..n.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausscone import measures
from gausscone.cones import Cone, FullSpace, Halfspace, Orthant
from gausscone.errors import NoBoundaryError
from gausscone.measures import build_rule
from gausscone.weights import DunklProduct, Monomial, PartialProduct, make_weight

SHAPES = [(n, k) for n in range(1, 5) for k in range(n + 1)]


def random_normals(rng, n, k):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q.T[:k]


@pytest.mark.parametrize("n, k", SHAPES)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=8, deadline=None)
def test_random_orthonormal_cone(n, k, seed):
    rng = np.random.default_rng(seed)
    normals = random_normals(rng, n, k)
    cone = Cone(n, tuple(map(tuple, normals)))
    assert cone.has_boundary == (k > 0)

    # the facet gaps are pts @ N^T, with the normals in the cone's order
    pts = rng.uniform(-3.0, 3.0, size=(50, n))
    gaps = cone.facet_gaps(pts)
    assert gaps.shape == (50, k)
    np.testing.assert_allclose(np.sort(gaps, axis=1),
                               np.sort(pts @ normals.T, axis=1), atol=1e-12)
    np.testing.assert_array_equal(cone.is_interior(pts),
                                  np.all(pts @ normals.T > 1e-12, axis=1))

    if k == 0:
        assert cone == FullSpace(n)
        with pytest.raises(NoBoundaryError):
            cone.boundary_sample(rng, 10)
        return
    # each boundary point lies on exactly one facet, whose outward normal is
    # the sampled eta, and x . eta = 0 there
    bpts, etas = cone.boundary_sample(rng, 60)
    bgaps = cone.facet_gaps(bpts)
    assert np.all(np.sum(np.abs(bgaps) <= 1e-12, axis=1) == 1)
    assert np.all(bgaps > -1e-12)
    for p, eta in zip(bpts, etas):
        np.testing.assert_array_equal(cone.boundary_normal(p), eta)
        assert abs(p @ eta) <= 1e-12


@pytest.mark.parametrize("n, k", SHAPES)
def test_axis_signature_of_signed_axis_normals(n, k):
    rng = np.random.default_rng(10 * n + k)
    axes = rng.permutation(n)[:k]
    signs = rng.choice([-1.0, 1.0], size=k)
    normals = tuple(tuple(s * np.eye(n)[a]) for a, s in zip(axes, signs))
    expected = ["full"] * n
    for a, s in zip(axes, signs):
        expected[a] = "half+" if s > 0 else "half-"
    cone = Cone(n, normals)
    assert cone.axis_signature() == tuple(expected)
    assert cone.constrained_axes() == frozenset(int(a) for a in axes)
    if k:
        tilted = Cone(n, tuple(map(tuple, random_normals(rng, n, k))))
        assert n == 1 or tilted.axis_signature() is None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_non_orthogonal_normals_rejected(n):
    normals = random_normals(np.random.default_rng(n), n, 2)
    with pytest.raises(ValueError):
        Cone(n, (tuple(normals[0]), tuple(normals[1] + 0.1 * normals[0])))
    with pytest.raises(ValueError):
        Cone(n, (tuple(normals[0]), tuple(normals[0])))


def test_one_halfplane_three_constructors(monkeypatch):
    cones = [Orthant(2, {0}), Halfspace(2, (1, 0)), Cone(2, ((1, 0),))]
    assert cones[0] == cones[1] == cones[2]
    assert len(set(cones)) == 1
    monkeypatch.setattr(measures, "_RULE_CACHE", {})
    rules = [build_rule(make_weight(Monomial((1.0, 0.0)), 2, cone=c), order=8)
             for c in cones]
    assert len(measures._RULE_CACHE) == 1
    assert rules[0] is rules[1] is rules[2]


def test_tilted_root_partial_product_gets_embedded_halfspace():
    spec = PartialProduct(DunklProduct(((0.6, 0.8),), (0.5,)), (0, 2))
    cone = spec.natural_cone(3)
    np.testing.assert_allclose(cone.matrix, [[0.6, 0.0, 0.8]], rtol=0, atol=1e-15)
    w = make_weight(spec, 3, certify=False)
    assert w.cone == cone
    assert cone.contains([0.8, 5.0, -0.6]) and not cone.is_interior([0.8, 5.0, -0.6])


def test_facet_order_does_not_matter():
    assert Cone(2, ((0.0, 1.0), (1.0, 0.0))) == Orthant(2, {0, 1})
    spec = PartialProduct(Monomial((1.0, 2.0)), (2, 0))
    assert spec.natural_cone(3) == Orthant(3, {0, 2})
