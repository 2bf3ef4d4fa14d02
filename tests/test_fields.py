import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausscone.fields import (
    ScalarField,
    affine,
    constant,
    exp_axis,
    gaussian,
    gaussian_quarter,
    hermite_witness,
    mass_dilated,
    one_plus,
    poly_gauss,
    product,
    scaled,
    shifted,
    slow_jet,
    squared,
)

from fdcheck import fd_gradient_error, fd_hessian_error

def _sum(f, g):
    return ScalarField(f"({f.name})+({g.name})", f.dim, lambda x, order: tuple(
        a + b for a, b in zip(f.jet(x, order), g.jet(x, order))))


LIBRARY = [
    constant(2.0, 2),
    affine([1.0, -2.0], 0.5),
    exp_axis(0.5, 1, 2),
    hermite_witness(1, 2),
    gaussian(1.3, 1.2, 2),
    gaussian_quarter(1.1, 2),
    poly_gauss(0, 2),
    poly_gauss(4, 2, even_axes=frozenset({0})),
    squared(hermite_witness(0, 2)),
    product(gaussian(1.0, 1.0, 2), affine([0.0, 1.0], 0.0)),
    one_plus(0.1, affine([0.0, 1.0], 0.0)),
    mass_dilated(gaussian(1.0, 1.0, 2), 0.5, 0.0).with_name(
        "gaussian(A=1.0,lam=1.0)(x/2.0)"),
    mass_dilated(poly_gauss(2, 2), 1.5, 3.5),
    _sum(poly_gauss(5, 2), hermite_witness(0, 2)),
    scaled(poly_gauss(6, 2), 0.0),
    shifted(exp_axis(-0.3, 0, 2), -1.5),
]


# the library fields that are exactly p(x) exp(-rate |x|^2), in dims 1 to 3
STRUCTURED = [
    hermite_witness(0, 1),
    hermite_witness(1, 3),
    gaussian(1.3, 1.2, 2),
    gaussian_quarter(1.1, 3),
    poly_gauss(0, 2),
    poly_gauss(4, 3, even_axes=frozenset({0})),
]
STRUCTURE_KEEPERS = {
    "plain": lambda f: f,
    "scaled": lambda f: scaled(f, -2.5),
    "dilated": lambda f: mass_dilated(f, 1.0 / 1.7, 0.0),
    "mass_dilated": lambda f: mass_dilated(f, 0.6, f.dim + 1.5),
}


@pytest.mark.parametrize("keeper", list(STRUCTURE_KEEPERS))
@pytest.mark.parametrize("base", STRUCTURED, ids=lambda f: f"{f.name}-{f.dim}d")
def test_structure_matches_jet(base, keeper):
    # the HUP-stability distances integrate the structure, not the jet, so a
    # wrong structure would give wrong distances without any other failure
    f = STRUCTURE_KEEPERS[keeper](base)
    pts = np.random.default_rng(11).normal(scale=1.5, size=(200, f.dim))
    pg = f.poly_gauss
    assert pg.rate == f.decay.rate
    structured = pg.poly.value(pts) * np.exp(-pg.rate * np.sum(pts ** 2, axis=1))
    value = f.value(pts)
    np.testing.assert_allclose(structured, value, rtol=1e-14,
                               atol=1e-14 * np.max(np.abs(value)))


@pytest.mark.parametrize("keeper", list(STRUCTURE_KEEPERS))
@pytest.mark.parametrize("base", STRUCTURED + [constant(2.0, 2),
                                               affine([1.0, -2.0, 0.5], 0.3)],
                         ids=lambda f: f"{f.name}-{f.dim}d")
def test_laplacian_is_hessian_trace(base, keeper):
    # integration by parts takes the slow parts of a structured field's
    # order-2 jet, its value, gradient and Laplacian over the bump, from its
    # PolyGauss without the Hessian; times the bump they are its jet, the
    # Hessian by its trace, on the full space and the half axes
    f = STRUCTURE_KEEPERS[keeper](base)
    x = np.random.default_rng(13).normal(scale=1.5, size=(200, f.dim))
    for pts in (x, np.abs(x)):
        slow = f.poly_gauss.value_grad_laplacian(pts)
        bump = np.exp(-f.poly_gauss.rate * np.sum(pts ** 2, axis=1))
        value, grad, lap = ((part.T * bump).T for part in slow)
        want_value, want_grad, hess = f.jet(pts, 2)
        want = np.trace(hess, axis1=1, axis2=2)
        np.testing.assert_allclose(lap, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))
        np.testing.assert_allclose(grad, want_grad, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want_grad)))
        np.testing.assert_allclose(value, want_value, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want_value)))
        # slow_jet gives these parts, and its order 1 is their prefix
        for order in (1, 2):
            parts = slow_jet(f, pts, order)
            assert len(parts) == order + 1
            for got, expect in zip(parts, slow):
                assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("f", [exp_axis(0.5, 1, 2), squared(hermite_witness(0, 2)),
                               product(gaussian(1.0, 1.0, 2), poly_gauss(1, 2))],
                         ids=lambda f: f.name)
def test_slow_jet_of_an_unstructured_field(f):
    # a field without a PolyGauss gives its jet times exp(r |x|^2), the
    # Hessian by its trace, with no multiply at r = 0
    pts = np.random.default_rng(17).normal(scale=1.5, size=(200, f.dim))
    value, grad, hess = f.jet(pts, 2)
    want = (value, grad, np.trace(hess, axis1=1, axis2=2))
    slow = slow_jet(f, pts, 2)
    envelope = np.exp(-f.decay.rate * np.sum(pts ** 2, axis=1))
    for got, expect in zip(slow, want):
        if f.decay.rate == 0:
            assert got.tobytes() == np.ascontiguousarray(expect).tobytes()
        np.testing.assert_allclose((got.T * envelope).T, expect, rtol=0,
                                   atol=1e-13 * np.max(np.abs(expect)))
    for got, expect in zip(slow_jet(f, pts, 1), slow):
        assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("f", [
    shifted(poly_gauss(0, 2), 0.0),
    shifted(gaussian(1.0, 1.0, 2), 0.5),
    product(gaussian(1.0, 1.0, 2), poly_gauss(1, 2)),
    squared(hermite_witness(0, 2)),
    one_plus(0.1, poly_gauss(2, 2)),
], ids=lambda f: f.name)
def test_other_combinators_drop_structure(f):
    assert f.poly_gauss is None


@pytest.mark.parametrize("f", LIBRARY, ids=lambda f: f.name)
def test_gradient_matches_fd(f, rng):
    pts = rng.normal(size=(100, 2))
    assert fd_gradient_error(f, pts) < 1e-6


@pytest.mark.parametrize("f", LIBRARY, ids=lambda f: f.name)
def test_hessian_symmetric_and_matches_fd(f, rng):
    pts = rng.normal(size=(40, 2))
    hess = f.hess(pts)
    np.testing.assert_allclose(hess, np.swapaxes(hess, 1, 2), atol=1e-12)
    assert fd_hessian_error(f, pts) < 1e-5


@pytest.mark.parametrize("f", LIBRARY, ids=lambda f: f.name)
def test_jet_orders_are_prefixes(f, rng):
    pts = rng.normal(size=(30, 2))
    full = f.jet(pts, 2)
    assert [d.shape for d in full] == [(30,), (30, 2), (30, 2, 2)]
    for order in (0, 1):
        low = f.jet(pts, order)
        assert len(low) == order + 1
        for a, b in zip(low, full):
            assert np.array_equal(a, b)


# 3-D fields: a three-term sum over the short axis may associate differently
# on the two layouts, so their jets agree to round-off only
LIBRARY_3D = [
    constant(-0.5, 3),
    affine([0.5, 1.0, -2.0], 0.25),
    exp_axis(0.5, 2, 3),
    hermite_witness(1, 3),
    gaussian(1.3, 1.2, 3),
    gaussian_quarter(1.1, 3),
    poly_gauss(4, 3, even_axes=frozenset({0})),
    product(gaussian(1.0, 1.0, 3), affine([0.0, 1.0, 0.5], 0.0)),
    mass_dilated(poly_gauss(2, 3), 1.5, 4.5),
]


@pytest.mark.parametrize("f", LIBRARY + LIBRARY_3D,
                         ids=lambda f: f"{f.name}-{f.dim}d")
def test_jet_same_on_both_layouts(f, rng):
    # a row-major batch and its axis-first copy give the same jet, and the
    # jet of the axis-first batch is itself axis-first
    rows = rng.uniform(-1.5, 1.5, size=(64, f.dim))
    cols = np.asfortranarray(rows)
    assert cols.T.flags.c_contiguous
    for a, b in zip(f.jet(rows, 2), f.jet(cols, 2)):
        if f.dim == 2:
            np.testing.assert_array_equal(a, b)
        else:
            assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(a))
        assert np.moveaxis(b, 0, -1).flags.c_contiguous


@pytest.mark.parametrize("f", LIBRARY, ids=lambda f: f.name)
def test_methods_index_the_jet(f, rng):
    pts = rng.normal(size=(7, 2))
    for x in (pts, pts[3]):
        batch = np.atleast_2d(x)
        value, grad, hess = f.jet(batch, 2)
        assert np.array_equal(f.value(x), value)
        assert np.array_equal(f(x), value)
        assert np.array_equal(f.grad(x), grad)
        assert np.array_equal(f.hess(x), hess)
    assert f.value(pts[3]).shape == (1,)


def test_decay_envelopes_hold(rng):
    pts = rng.normal(size=(500, 2)) * 3.0
    for f in LIBRARY:
        if not f.decay.is_gaussian:
            continue
        vals = np.abs(f.value(pts))
        envelope = np.exp(-f.decay.rate * np.sum(pts ** 2, axis=1))
        # a generous polynomial prefactor; the rate is what matters
        poly = 50.0 * (1.0 + np.sum(pts ** 2, axis=1)) ** 3
        assert np.all(vals <= poly * envelope + 1e-300)


def test_parity_tags(rng):
    pts = rng.normal(size=(50, 2))
    for f in LIBRARY:
        for ax in f.even_axes:
            flipped = pts.copy()
            flipped[:, ax] *= -1
            np.testing.assert_allclose(f.value(flipped), f.value(pts),
                                       rtol=1e-12, atol=1e-12)
        for ax in f.odd_axes:
            flipped = pts.copy()
            flipped[:, ax] *= -1
            np.testing.assert_allclose(f.value(flipped), -f.value(pts),
                                       rtol=1e-12, atol=1e-12)


def test_squared_parity_promotes_odd_to_even():
    w = hermite_witness(1, 2)
    assert 1 in w.odd_axes
    sq = squared(w)
    assert 1 in sq.even_axes and not sq.odd_axes


def test_product_decay_rate_adds():
    f = gaussian(1.0, 1.0, 2)     # rate 1/2
    g = gaussian(2.0, 2.0, 2)     # rate 1/8
    assert product(f, g).decay.rate == pytest.approx(0.5 + 0.125)


def test_dilation_rescales_rate():
    f = gaussian(1.0, 1.0, 2)
    assert mass_dilated(f, 0.5, 0.0).decay.rate == pytest.approx(0.125)
    assert mass_dilated(f, 2.0, 2.0).decay.rate == pytest.approx(2.0)


def test_mass_dilated_values():
    f = poly_gauss(7, 2)
    lam, n_alpha = 1.7, 3.5
    g = mass_dilated(f, lam, n_alpha)
    pts = np.array([[0.3, -0.8], [1.0, 0.2]])
    np.testing.assert_allclose(
        g.value(pts), lam ** (n_alpha / 2) * f.value(pts * lam))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_poly_gauss_seed_determinism_and_fd(seed):
    f1 = poly_gauss(seed, 2)
    f2 = poly_gauss(seed, 2)
    pts = np.random.default_rng(0).normal(size=(20, 2))
    np.testing.assert_array_equal(f1.value(pts), f2.value(pts))
    assert fd_gradient_error(f1, pts) < 1e-6


def test_poly_gauss_even_axes(rng):
    f = poly_gauss(3, 2, even_axes=frozenset({0}))
    pts = rng.normal(size=(30, 2))
    flipped = pts.copy()
    flipped[:, 0] *= -1
    np.testing.assert_allclose(f.value(flipped), f.value(pts), rtol=1e-12)


def test_jet_is_the_only_derivative_field():
    names = {fld.name for fld in dataclasses.fields(ScalarField)}
    assert "jet" in names
    assert not names & {"value", "grad", "hess"}


# ---------------------------------------------------------------------------
# the structured jet against closed forms, and the tags read off the structure
# ---------------------------------------------------------------------------

def _constant_jet(c, x):
    n, dim = x.shape
    return np.full(n, float(c)), np.zeros((n, dim)), np.zeros((n, dim, dim))


def _affine_jet(a, b, x):
    n, dim = x.shape
    return x @ a + b, np.tile(a, (n, 1)), np.zeros((n, dim, dim))


def _gaussian_jet(amplitude, lam, x):
    c = 1.0 / (lam * lam)
    f = amplitude * np.exp(-0.5 * c * np.sum(x ** 2, axis=1))
    grad = -c * x * f[:, None]
    hess = (c * c * x[:, :, None] * x[:, None, :] - c * np.eye(x.shape[1]))
    return f, grad, hess * f[:, None, None]


def _hermite_witness_jet(axis, x):
    g = np.exp(-0.5 * np.sum(x ** 2, axis=1))
    xkg = x[:, axis] * g
    grad = -x * xkg[:, None]
    grad[:, axis] += g
    hess = (x[:, :, None] * x[:, None, :]) * xkg[:, None, None]
    hess -= np.eye(x.shape[1])[None, :, :] * xkg[:, None, None]
    hess[:, axis, :] -= x * g[:, None]
    hess[:, :, axis] -= x * g[:, None]
    return xkg, grad, hess


def _closed_forms(dim):
    rng = np.random.default_rng(dim)
    slope = rng.normal(size=dim)
    return [
        (constant(2.5, dim), lambda x: _constant_jet(2.5, x)),
        (constant(0.0, dim), lambda x: _constant_jet(0.0, x)),
        (affine(slope, 0.7), lambda x: _affine_jet(slope, 0.7, x)),
        (affine(np.eye(dim)[-1], 0.0), lambda x: _affine_jet(np.eye(dim)[-1], 0.0, x)),
        (gaussian(1.3, 0.9, dim), lambda x: _gaussian_jet(1.3, 0.9, x)),
        (gaussian_quarter(1.1, dim),
         lambda x: _gaussian_jet(1.1, np.sqrt(2.0), x)),
        (hermite_witness(0, dim), lambda x: _hermite_witness_jet(0, x)),
        (hermite_witness(dim - 1, dim),
         lambda x: _hermite_witness_jet(dim - 1, x)),
    ]


@pytest.mark.parametrize("dim", range(1, 7))
def test_structured_jets_match_closed_forms(dim):
    x = np.random.default_rng(100 + dim).normal(scale=1.5, size=(100, dim))
    for f, closed in _closed_forms(dim):
        expected = closed(x)
        for order in (0, 1, 2):
            for got, want in zip(f.jet(x, order), expected[:order + 1]):
                np.testing.assert_allclose(
                    got, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)),
                    err_msg=f"{f.name} order {order}")


# decay rate, even axes and odd axes of each constructor, written out by hand:
# the tags read off the structure must equal them
DECLARED_TAGS = [
    (constant(2.0, 3), 0.0, {0, 1, 2}, set()),
    (constant(0.0, 2), 0.0, {0, 1}, set()),
    (affine([0.0, 1.0, 0.0], 0.0), 0.0, {0, 2}, {1}),
    (affine([0.0, 1.0, 0.0], 0.3), 0.0, {0, 2}, set()),
    (affine([1.0, 0.0, -2.0], 0.0), 0.0, {1}, set()),
    (affine([1.0, 0.5], 0.0), 0.0, set(), set()),
    (affine([0.0, 0.0], 0.0), 0.0, {0, 1}, set()),
    (affine([0.0, 0.0], 1.5), 0.0, {0, 1}, set()),
    (exp_axis(0.5, 1, 2), 0.0, {0}, set()),
    (hermite_witness(1, 3), 0.5, {0, 2}, {1}),
    (hermite_witness(0, 1), 0.5, set(), {0}),
    (gaussian(1.3, 1.2, 2), 0.3472222222222222, {0, 1}, set()),
    (gaussian(0.0, 1.0, 2), 0.5, {0, 1}, set()),
    (gaussian_quarter(1.1, 3), 0.25, {0, 1, 2}, set()),
    (poly_gauss(0, 2), 0.3426800226193738, set(), set()),
    (poly_gauss(4, 3, even_axes=frozenset({0})), 0.35044274116881324, {0}, set()),
    (poly_gauss(2, 2, even_axes=frozenset({0, 1})), 0.6986705387213976,
     {0, 1}, set()),
]


@pytest.mark.parametrize("f, rate, even, odd", DECLARED_TAGS,
                         ids=[f"{f.name}-{f.dim}d" for f, *_ in DECLARED_TAGS])
def test_tags_match_declared(f, rate, even, odd):
    assert f.decay.rate == rate
    assert f.decay.is_gaussian == (rate > 0)
    assert f.even_axes == even
    assert f.odd_axes == odd
    if f.poly_gauss is not None:
        assert f.poly_gauss.rate == rate


def _poly_gauss_reference(f, x):
    """The seeded polynomial field's jet with its Hessian update written as
    one symmetric (n, n, N) sum, w s^T + (w s^T)^T."""
    poly, c, dim = f.poly_gauss.poly, 2.0 * f.poly_gauss.rate, f.dim
    e = np.exp(-0.5 * c * np.einsum("ij,ij->i", x, x))
    d = poly.derivatives(x, 2)
    pe = d[0] * e
    w = c * x.T
    grad = ((d[1:1 + dim] - w * d[0]) * e).T
    s = d[1:1 + dim] * e - 0.5 * w * pe
    h = d[1 + dim:].reshape(dim, dim, -1)
    h *= e
    t = w[:, None] * s[None, :]
    h -= t + np.swapaxes(t, 0, 1)
    diag = np.arange(dim)
    h[diag, diag] -= c * pe
    return pe, grad, h.transpose(2, 0, 1)


@pytest.mark.parametrize("dim", range(1, 5))
def test_poly_gauss_jet_bitwise_reference(dim):
    x = np.random.default_rng(dim).normal(scale=1.5, size=(60, dim))
    for f in (poly_gauss(dim, dim), poly_gauss(dim + 9, dim, degree=4,
                                                  even_axes=frozenset({0}))):
        expected = _poly_gauss_reference(f, x)
        for order in (0, 1, 2):
            for got, want in zip(f.jet(x, order), expected):
                assert np.array_equal(got, want)
