import numpy as np
import pytest

from gausscone import polys
from gausscone.fields import poly_gauss
from gausscone.functionals import hup_deficit
from gausscone.gamma import (
    apply_generator,
    bochner_residual,
    cd_margin,
    integration_by_parts_residual,
)
from gausscone.inequalities import (
    check_beckner,
    check_lsi,
    check_poincare,
    check_scale_poincare,
)
from gausscone.measures import make_measure
from gausscone.polys import PolyND, exponent_table
from gausscone.weights import Monomial, make_weight

from fdcheck import fd_gradient_error, fd_hessian_error

REL_TOL = 1e-13


def reference_terms(points, expo, coeffs, d1=None, d2=None):
    """Terms c_k * d/dx_d1 d/dx_d2 x^e_k, one column per term, shape (N, K)."""
    e = expo.astype(float)
    factor = np.ones(len(expo))
    for ax in (d1, d2):
        if ax is None:
            continue
        factor = factor * e[:, ax]
        e = e.copy()
        e[:, ax] = np.maximum(e[:, ax] - 1.0, 0.0)
    powers = points[:, None, :] ** e[None, :, :]
    return np.prod(powers, axis=2) * (factor * coeffs)[None, :]


def assert_matches(got, terms):
    want = terms.sum(axis=1)
    scale = np.abs(terms).sum(axis=1)
    assert np.all(np.abs(got - want) <= REL_TOL * scale)


def random_poly(rng, dim, degree, even_axes):
    expo = exponent_table(dim, degree, even_axes=even_axes)
    coeffs = rng.standard_normal(len(expo))
    coeffs[rng.random(len(expo)) < 0.3] = 0.0
    return expo, coeffs


def loop_rows(expo, coeffs):
    """The coefficient rows of p, each d_a p and each d_a d_b p on the
    monomial table, built term by term with the integer factor of a mixed
    derivative formed first."""
    n = expo.shape[1]
    table = exponent_table(n, int(expo.sum(axis=1).max()) if len(expo) else 0)
    index = {tuple(e): k for k, e in enumerate(table.tolist())}
    rows = np.zeros((1 + n + n * n, len(table)))
    for e, c in zip(expo.tolist(), np.asarray(coeffs, dtype=float).tolist()):
        rows[0, index[tuple(e)]] += c
        for a in range(n):
            if not e[a]:
                continue
            da = list(e)
            da[a] -= 1
            rows[1 + a, index[tuple(da)]] += e[a] * c
            for b in range(n):
                if not da[b]:
                    continue
                dab = list(da)
                dab[b] -= 1
                rows[1 + n + a * n + b, index[tuple(dab)]] += (e[a] * da[b]) * c
    return rows


def check_against_reference(poly, expo, coeffs, pts):
    n = expo.shape[1]
    # same arithmetic in the same order as the term-by-term loop
    assert np.array_equal(poly._rows, loop_rows(expo, coeffs))
    table = exponent_table(n, poly._degree)
    assert np.array_equal(polys.monomial_index(table, poly._degree),
                          np.arange(len(table)))
    assert_matches(poly.value(pts), reference_terms(pts, expo, coeffs))
    grad = poly.grad(pts)
    hess = poly.hess(pts)
    assert grad.shape == (len(pts), n)
    assert hess.shape == (len(pts), n, n)
    for a in range(n):
        assert_matches(grad[:, a], reference_terms(pts, expo, coeffs, a))
        for b in range(n):
            assert_matches(hess[:, a, b], reference_terms(pts, expo, coeffs, a, b))


@pytest.mark.parametrize("even", [False, True], ids=["all_axes", "even_axis_0"])
@pytest.mark.parametrize("degree", range(6))
@pytest.mark.parametrize("dim", range(1, 7))
def test_matches_per_term_reference(dim, degree, even):
    rng = np.random.default_rng(100 * dim + 10 * degree + even)
    expo, coeffs = random_poly(rng, dim, degree,
                               frozenset({0}) if even else frozenset())
    pts = rng.normal(size=(25, dim)) * 1.5
    check_against_reference(PolyND(expo, coeffs), expo, coeffs, pts)


def test_sparse_shuffled_terms_and_zero_polynomial():
    rng = np.random.default_rng(7)
    full = exponent_table(3, 5)
    pick = rng.permutation(len(full))[:9]
    expo, coeffs = full[pick], rng.standard_normal(9)
    pts = rng.normal(size=(30, 3))
    check_against_reference(PolyND(expo, coeffs), expo, coeffs, pts)
    zero = PolyND(full, np.zeros(len(full)))
    assert not np.any(zero.value(pts))
    assert not np.any(zero.grad(pts))
    assert not np.any(zero.hess(pts))


@pytest.mark.parametrize("count", [0, 1])
def test_small_batches(count):
    rng = np.random.default_rng(3)
    expo, coeffs = random_poly(rng, 3, 4, frozenset())
    poly = PolyND(expo, coeffs)
    pts = rng.normal(size=(count, 3))
    assert poly.value(pts).shape == (count,)
    check_against_reference(poly, expo, coeffs, pts)


@pytest.mark.parametrize("dim", range(1, 7))
def test_poly_gauss_derivatives_all_dims(dim):
    f = poly_gauss(dim, dim, even_axes=frozenset({0}))
    pts = np.random.default_rng(dim).normal(size=(30, dim))
    hess = f.hess(pts)
    assert np.array_equal(hess, np.swapaxes(hess, 1, 2))
    assert fd_gradient_error(f, pts) < 1e-6
    assert fd_hessian_error(f, pts) < 1e-5


@pytest.fixture
def table_builds(monkeypatch):
    """List that grows by one each time a PolyND fills its monomial table."""
    calls = []
    build = polys.PolyND._table

    def counted(self, points):
        calls.append(len(points))
        return build(self, points)

    monkeypatch.setattr(polys.PolyND, "_table", counted)
    return calls


@pytest.mark.parametrize("method", ["value", "grad", "hess"])
def test_one_table_per_call(method, table_builds):
    expo = exponent_table(3, 3)
    poly = PolyND(expo, np.ones(len(expo)))
    f = poly_gauss(0, 3)
    pts = np.random.default_rng(0).normal(size=(64, 3))
    getattr(poly, method)(pts)
    assert table_builds == [64]
    getattr(f, method)(pts)
    assert table_builds == [64, 64]


# each consumer needs several derivative orders at the same points and takes
# them from one jet, so it fills the monomial table once per field and point set
CONSUMERS = {
    "cd_margin": (lambda w, mu, f, g: cd_margin(w, f), 1),
    "integration_by_parts_residual":
        (lambda w, mu, f, g: integration_by_parts_residual(mu, f, g), 2),
    "hup_deficit": (lambda w, mu, f, g: hup_deficit(mu, f), 1),
    "apply_generator": (lambda w, mu, f, g: apply_generator(
        w, f, w.cone.sample_interior(np.random.default_rng(0), 50)), 1),
    # each mu-check takes one order-1 jet at the nodes for all its integrals
    "check_beckner": (lambda w, mu, f, g: check_beckner(mu, f, 1.5, 2.0), 1),
    "check_poincare_basic":
        (lambda w, mu, f, g: check_poincare(mu, f, level="basic"), 1),
    "check_poincare_gradient_stability":
        (lambda w, mu, f, g: check_poincare(mu, f, level="gradient_stability"), 1),
    "check_poincare_l2_stability":
        (lambda w, mu, f, g: check_poincare(mu, f, level="l2_stability"), 1),
    "check_scale_poincare_basic": (lambda w, mu, f, g: check_scale_poincare(
        mu, f, 1.3, "basic"), 1),
    "check_scale_poincare_improved": (lambda w, mu, f, g: check_scale_poincare(
        mu, f, 1.3, "improved"), 1),
    "check_lsi": (lambda w, mu, f, g: check_lsi(mu, f, 2.0), 1),
    "bochner_residual":
        (lambda w, mu, f, g: bochner_residual(w, f, [0.7, -0.3, 0.4]), 1),
}


@pytest.mark.parametrize("consumer", list(CONSUMERS))
def test_one_table_per_consumer(consumer, table_builds):
    weight = make_weight(Monomial((1.5, 0.0, 0.0)), 3)
    measure = make_measure(weight, 1.0, order=8)
    f = poly_gauss(0, 3, even_axes=frozenset({0}))
    g = poly_gauss(1, 3, even_axes=frozenset({0}))
    call, tables = CONSUMERS[consumer]
    call(weight, measure, f, g)
    assert len(table_builds) == tables
