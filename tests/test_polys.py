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
from gausscone.measures import NODE_BLOCK, make_measure
from gausscone.polys import PolyND, exponent_table
from gausscone.weights import DunklProduct, Monomial, make_weight

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


# one-term contractions: a one-row table (a constant) and a one-root Dunkl
# grad_log form a broadcast product plus 0.0 in place of np.matmul

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _with_specials(rng, arr, share=0.2):
    mask = rng.random(arr.shape) < share
    arr[mask] = rng.choice(SPECIAL, mask.sum())
    return arr


def _assert_same_bits(got, want):
    # bit for bit, signed zeros included; a nan matches a nan
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.ascontiguousarray(got[~nan]).tobytes() == want[~nan].tobytes()


def _blocked(call, pts):
    return [call(pts[k:k + NODE_BLOCK]) for k in range(0, len(pts), NODE_BLOCK)]


@pytest.mark.parametrize("trial", range(20))
def test_one_row_table_is_matmul_bit_for_bit(trial):
    rng = np.random.default_rng(trial)
    dim = 1 + trial % 3
    poly = PolyND(np.zeros((1, dim), dtype=np.int64), [1.0])
    # rows of every sign, zero and non-finite value on the one-row table; a
    # -0 row is -0 in a plain product and +0 in matmul
    poly._rows[:] = _with_specials(rng, rng.normal(size=poly._rows.shape), 0.4)
    poly._rows[-1] = -0.0
    poly._laplacian[:] = _with_specials(rng, rng.normal(size=(1, 1)), 0.4)
    pts = _with_specials(rng, rng.normal(size=(2 * NODE_BLOCK + 5, dim)))
    table = polys.monomial_table(pts, 0)
    with np.errstate(invalid="ignore"):
        want = np.vstack([np.matmul(rows, table) for rows in (
            poly._rows[:1], poly._rows[1:1 + dim], poly._rows[1 + dim:],
            poly._laplacian)])
        got = poly.derivatives(pts, 2, laplacian=True)
        blocks = np.hstack(_blocked(
            lambda x: poly.derivatives(x, 2, laplacian=True), pts))
    _assert_same_bits(got, want)
    _assert_same_bits(blocks, want)


@pytest.mark.parametrize("spec", [Monomial((2.0,)), Monomial((1.5, 0.0, 0.0)),
                                  DunklProduct(((0.6, 0.8),), (0.5,))],
                         ids=["monomial-1d", "monomial-3d", "dunkl-2d"])
@pytest.mark.parametrize("trial", range(5))
def test_one_root_grad_log_is_matmul_bit_for_bit(spec, trial):
    rng = np.random.default_rng(100 + trial)
    betas = spec.zero_set(len(spec.roots[0]))
    assert len(betas) == 1
    pts = _with_specials(rng, rng.normal(size=(2 * NODE_BLOCK + 5, betas.shape[1])))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.asarray(spec.exponents)[:, None] / (betas @ pts.T)
        want = np.ascontiguousarray(np.matmul(betas.T, ratio).T)
        got = spec.grad_log(pts)
        blocks = np.vstack(_blocked(spec.grad_log, pts))
        plain = betas.T * ratio
    # a plain product has -0 where matmul has +0
    assert np.any(np.signbit(plain) & (plain == 0))
    _assert_same_bits(got, want)
    _assert_same_bits(blocks, want)
