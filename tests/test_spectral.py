"""Galerkin solver: basis quality, spectra, Poisson solves, the duality
chain and the semigroup realization.

The basis is a tensor product of per-axis orthonormal polynomials from the
three-term recurrences of `quad1d`; its Gram matrix is assembled on the
quadrature rule, which is built separately (Christoffel weights), so the
Gram residual is a real check of both.

Spectral oracles (all derived by independent computation):
  * w = 1: the recurrence basis must reproduce the probabilists' Hermite
    functions, so the stiffness is diag(0, 1, 2, ...) and the gap is
    exactly 1.
  * |x_1|^1.5 on the half-plane: -L_w maps the polynomials of per-axis
    degree at most (2j, i) into themselves and acts on the leading term
    x_1^(2j) x_2^i by -(2j + i), so the spectrum of the degree-d system is
    the multiset of total degrees i + 2j <= d.
  * off the nodes, the first and second derivatives in the per-axis tables
    agree with central differences of their values.
  * Gaussian tilt s: rescaling x -> x/sqrt(1+s) maps the generator onto the
    standard one, so the spectrum is (1+s) N and the gap 1+s.
  * monomial |x|^a on the half line with the even (Neumann) basis: u = x^2
    gives L u = 2(1+a) - 2 x^2, so x^2 - (1+a) is an eigenfunction with
    eigenvalue 2 for every a; nothing lies below it in the even sector.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from gausscone.cones import Halfspace, Orthant
from gausscone.config import build_weight, parse_config
from gausscone.errors import (
    ContractError,
    DomainError,
    MeanZeroViolationError,
    ParameterError,
)
from gausscone.fields import (
    affine,
    constant,
    poly_gauss,
    scaled,
    shifted,
    squared,
)
from gausscone.gamma import generator
from gausscone.measures import build_rule, integrate, make_measure
from gausscone.quad1d import orthonormal_polys
from gausscone.report import run
from gausscone.spectral import (
    axis_jet,
    build_galerkin,
    duality_stability_residual,
    galerkin_applies,
    poisson_solve,
    semigroup_apply,
    semigroup_decay_check,
    spectral_gap,
)
from gausscone.weights import GaussianTilt, Monomial, Radial, make_weight


# a scale lambda != 1 and an axis tilt both enter the per-axis scale s of
# the basis polynomials p(x / s)
SCALED_AND_TILTED = [(make_weight(Monomial((1.5, 0.0)), 2), 1.7),
                     (make_weight(GaussianTilt(-0.5), 2), 1.0)]


@pytest.fixture(scope="module")
def sys_1d(mu_one_1d):
    return build_galerkin(mu_one_1d, 14)


class TestBasis:
    def test_gram_residual(self, sys_1d):
        assert sys_1d.gram_residual <= 1e-10

    def test_hermite_recurrence_reproduced(self, sys_1d):
        # oracle: compare against probabilists' Hermite evaluated by the
        # stable three-term recurrence h_{k+1} = (x h_k - sqrt(k) h_{k-1})/sqrt(k+1)
        x = np.linspace(-3, 3, 41)[:, None]
        vals = sys_1d.values(x)
        h_prev = np.ones(len(x))
        h = x[:, 0].copy()
        np.testing.assert_allclose(np.abs(vals[:, 0]), h_prev, atol=1e-10)
        np.testing.assert_allclose(vals[:, 1] * np.sign(vals[5, 1] * h[5]),
                                   h, atol=1e-9)
        for k in range(1, 10):
            h_next = (x[:, 0] * h - np.sqrt(k) * h_prev) / np.sqrt(k + 1)
            h_prev, h = h, h_next
            sign = np.sign(vals[25, k + 1] * h[25])
            np.testing.assert_allclose(sign * vals[:, k + 1], h, atol=1e-8)

    def test_stiffness_diagonal_hermite(self, sys_1d):
        diag = np.arange(sys_1d.size, dtype=float)
        np.testing.assert_allclose(sys_1d.stiffness, np.diag(diag), atol=1e-9)

    def test_parity_filter_even_powers_only(self):
        w = make_weight(Monomial((1.0,)), 1)
        mu = make_measure(w, 1.0)
        system = build_galerkin(mu, 8)
        assert np.all(system.expo % 2 == 0)

    def test_constant_element_zero_stiffness_row(self, sys_1d):
        np.testing.assert_allclose(sys_1d.stiffness[0], 0.0, atol=1e-12)

    @pytest.mark.parametrize("weight,lam", SCALED_AND_TILTED)
    def test_gram_residual_scaled_and_tilted(self, weight, lam):
        system = build_galerkin(make_measure(weight, lam), 12)
        assert system.gram_residual <= 1e-13

    @pytest.mark.parametrize("weight,lam", SCALED_AND_TILTED)
    def test_off_node_derivatives_match_differences(self, weight, lam):
        # the per-axis tables carry p_j(t/s) and its first two derivatives
        # in t; both scale and tilt enter through s
        system = build_galerkin(make_measure(weight, lam), 8)
        t = np.random.default_rng(7).uniform(-2.0, 2.0, 25)
        for basis in system.axes:
            def vals(x):
                return axis_jet(basis, x, system.max_degree)[0]
            jet = axis_jet(basis, t, system.max_degree)
            scale = 1.0 + np.max(np.abs(jet[0]))
            central = (vals(t + 1e-5) - vals(t - 1e-5)) / 2e-5
            np.testing.assert_allclose(jet[1], central, rtol=0,
                                       atol=1e-7 * scale)
            second = (vals(t + 1e-3) - 2.0 * jet[0] + vals(t - 1e-3)) / 1e-6
            np.testing.assert_allclose(jet[2], second, rtol=0,
                                       atol=1e-5 * scale)

    def test_polar_rule_rejected(self):
        # the radial weight on the plane has a polar rule, whose nodes do
        # not form a tensor grid and whose density does not factor per axis
        mu = make_measure(make_weight(Radial(1.0), 2), 1.0)
        assert mu.rule.kind == "polar"
        with pytest.raises(ContractError):
            build_galerkin(mu, 6)

    def test_mc_measure_rejected(self):
        spec = np.sqrt(0.5)
        from gausscone.cones import Halfspace
        from gausscone.weights import DunklProduct
        w = make_weight(DunklProduct(((spec, spec),), (0.75,)), 2,
                        cone=Halfspace(2, (spec, spec)))
        mu = make_measure(w, 1.0, mc_samples=2 ** 12, seed=0)
        with pytest.raises(ContractError):
            build_galerkin(mu, 6)


# one config weight of every kind the schema lists; the radial weight on the
# plane gets the polar rule; in 3-D it has no product rule, so it and the
# dunkl_mc root ask for a Monte Carlo one
GALERKIN_CASES = [
    ({"kind": "one"}, 2, None, True),
    ({"kind": "monomial", "exponents": [1.5, 0.0]}, 2, None, True),
    ({"kind": "radial", "alpha": 1.0}, 1, None, True),
    ({"kind": "radial", "alpha": 1.0}, 2, None, False),
    ({"kind": "radial", "alpha": 1.0}, 3, 4096, False),
    ({"kind": "dunkl", "roots": [[1.0, 0.0]], "multiplicities": [0.75]}, 2,
     None, True),
    ({"kind": "dunkl", "roots": [[0.6, 0.8]], "multiplicities": [0.5]}, 2,
     200000, False),
    ({"kind": "gaussian_tilt", "s": 0.5}, 3, None, True),
    ({"kind": "partial_product", "coords": [0],
      "inner": {"kind": "monomial", "exponents": [1.5]}}, 3, None, True),
]


class TestGalerkinMeasure:
    # the Galerkin order is max(order, degree + 1): the run's own rule once
    # its order reaches degree + 1
    @pytest.mark.parametrize("order, degree", [
        (32, 16), (16, 10), (11, 10), (10, 10), (8, 12)],
        ids=["run_order", "run_order_higher", "run_order_at_the_bound",
             "galerkin_order_one_higher", "galerkin_order_higher"])
    def test_measure_is_the_one_rule_at_the_galerkin_order(self, order,
                                                           degree):
        weight = make_weight(Monomial((1.5, 0.0)), 2)
        mu = make_measure(weight, 1.0, order=order)
        system = build_galerkin(mu, degree)
        rule = build_rule(weight, mu.scale, order=max(mu.order, degree + 1))
        assert system.measure.rule is rule
        assert (rule is mu.rule) == (order >= degree + 1)
        assert system.nodes is rule.nodes
        assert len(rule.weights) == max(order, degree + 1) ** 2

    # an n-point Gauss rule is exact to degree 2n - 1, so at the Galerkin
    # order d + 1 both 1-D Grams (degree <= 2d) are exact on every axis kind:
    # a half line (of either sign) with exponent a, the free full line, and
    # a Gaussian tilt; at order d they are not (residual 1.0)
    @pytest.mark.parametrize("weight", [
        make_weight(Monomial((0.0, 0.0)), 2, cone=Orthant(2, frozenset({0}))),
        *[make_weight(Monomial((a, 0.0)), 2) for a in (0.5, 1.5, 3.0, 5.0)],
        make_weight(Monomial((1.5, 0.0)), 2, cone=Halfspace(2, (-1.0, 0.0))),
        make_weight(GaussianTilt(0.5), 2, cone=Orthant(2, frozenset({0}))),
    ], ids=["a0", "a0.5", "a1.5", "a3", "a5", "negative_half_line", "tilt"])
    @pytest.mark.parametrize("lam", [1.0, 1.7])
    def test_gram_is_exact_at_the_galerkin_order(self, weight, lam):
        mu = make_measure(weight, lam, order=2)
        for degree in range(4, 17):
            system = build_galerkin(mu, degree)
            assert all(len(b.weights) == degree + 1
                       for b in system.measure.rule.blocks)
            assert system.gram_residual <= 1e-13, (degree,
                                                   system.gram_residual)

    def test_six_dim_order_8_builds_on_9_to_the_6_nodes(self):
        # 9^6 nodes at the default degree 8; a margin of 8 would ask for
        # 16^6 > MAX_TENSOR_NODES and be refused
        mu = make_measure(make_weight(Monomial((1.5,) + (0.0,) * 5), 6), 1.0,
                          order=8)
        system = build_galerkin(mu)
        assert system.measure.rule is build_rule(mu.weight, 1.0, order=9)
        assert len(system.nodes) == 9 ** 6
        assert system.gram_residual <= 1e-13

    # the degree-(d - 2) block needs a second basis function: x^2 on the
    # half line, x_1 on the free axis of the half-plane
    @pytest.mark.parametrize("exponents, degree, lowest", [
        ((1.0,), 1, 4), ((1.0,), 2, 4), ((1.0,), 3, 4),
        ((1.0, 0.0), 0, 3), ((1.0, 0.0), 1, 3), ((1.0, 0.0), 2, 3)])
    def test_degree_too_low_for_the_gap_is_refused(self, exponents, degree,
                                                   lowest):
        mu = make_measure(make_weight(Monomial(exponents), len(exponents)),
                          1.0, order=8)
        with pytest.raises(ParameterError,
                           match=f"smallest degree is {lowest}$"):
            build_galerkin(mu, degree)
        res = spectral_gap(build_galerkin(mu, lowest))
        assert res.gap == pytest.approx(2.0 if len(exponents) == 1 else 1.0,
                                        abs=1e-8)


class TestGalerkinApplies:
    @pytest.mark.parametrize("spec, dim, mc_samples, expected", GALERKIN_CASES)
    def test_predicate_matches_build_galerkin(self, spec, dim, mc_samples,
                                              expected):
        config = parse_config({"dim": dim, "weight": spec, "suites": []})
        mu = make_measure(build_weight(config), 1.0, order=8,
                          mc_samples=mc_samples)
        assert galerkin_applies(mu) is expected
        if expected:
            assert build_galerkin(mu, 4).size > 0
        else:
            with pytest.raises(ContractError):
                build_galerkin(mu, 4)


class TestGap:
    def test_gaussian_gap_one(self, sys_1d):
        res = spectral_gap(sys_1d)
        assert res.gap == pytest.approx(1.0, abs=1e-8)
        assert res.convergence_delta <= 1e-9
        assert res.converged

    def test_gaussian_2d(self, mu_one_2d):
        res = spectral_gap(build_galerkin(mu_one_2d, 12))
        assert res.gap == pytest.approx(1.0, abs=1e-8)
        assert res.convergence_delta <= 1e-9

    def test_tilt_gap(self):
        w = make_weight(GaussianTilt(-0.5), 1)
        res = spectral_gap(build_galerkin(make_measure(w, 1.0), 14))
        assert res.gap == pytest.approx(0.5, abs=1e-6)

    def test_monomial_even_gap_two(self):
        w = make_weight(Monomial((1.5,)), 1)
        res = spectral_gap(build_galerkin(make_measure(w, 1.0), 16))
        assert res.gap == pytest.approx(2.0, abs=1e-6)
        assert res.gap >= 1.0 - 1e-6  # >= 1 + K_w

    def test_gap_lower_bound_all_builtins(self):
        cases = [make_weight(Monomial((0.0, 0.0)), 2),
                 make_weight(Monomial((1.5, 0.0)), 2),
                 make_weight(Monomial((1.0, 2.0)), 2),
                 make_weight(GaussianTilt(-0.5), 2)]
        for w in cases:
            res = spectral_gap(build_galerkin(make_measure(w, 1.0), 10))
            assert res.gap >= (1.0 + w.kw) - 1e-6

    def test_half_plane_spectrum_is_total_degrees(self):
        w = make_weight(Monomial((1.5, 0.0)), 2)
        system = build_galerkin(make_measure(w, 1.0, order=32), 16)
        exact = np.sort(system.expo.sum(axis=1)).astype(float)
        np.testing.assert_allclose(spectral_gap(system).eigenvalues, exact,
                                   rtol=0, atol=1e-12)

    def test_partial_free_axis_eigenvalue_one(self, mu_partial):
        system = build_galerkin(mu_partial, 10)
        res = spectral_gap(system)
        assert res.gap == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("fixture,degree", [
        ("mu_one_1d", 14), ("mu_partial", 10), ("mu_partial", 12)])
    def test_lower_degree_block_matches_rebuilt_system(self, request,
                                                       fixture, degree):
        # oracle: the degree-(d-2) system assembled from scratch; its
        # stiffness is the leading block of the degree-d one
        mu = request.getfixturevalue(fixture)
        system = build_galerkin(mu, degree)
        lower = build_galerkin(mu, degree - 2)
        m = lower.size
        np.testing.assert_allclose(system.stiffness[:m, :m], lower.stiffness,
                                   rtol=0, atol=1e-12)
        res = spectral_gap(system)
        oracle = float(lower.eigensystem()[0][1])
        assert res.gap_at_lower_degree == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("exps", [(1.0, 2.0), (0.5, 0.5), (3.0, 1.5)])
    def test_quadrant_even_sector_gap_two(self, exps):
        # with every axis constrained the Neumann sector is even in each
        # coordinate; L(x_i^2 - c) = -2(x_i^2 - c) makes 2 the bottom of the
        # nonzero spectrum independently of the exponents
        w = make_weight(Monomial(exps), 2)
        res = spectral_gap(build_galerkin(make_measure(w, 1.0), 12))
        assert res.gap == pytest.approx(2.0, abs=1e-8)


class TestPoisson:
    def test_coordinate(self, sys_1d):
        sol = poisson_solve(sys_1d, affine([1.0], 0.0))
        assert sol.residual <= 1e-10
        x = np.array([[0.3], [1.2]])
        np.testing.assert_allclose(sys_1d.values(x) @ sol.coeffs,
                                   x[:, 0], atol=1e-10)

    def test_quadratic_eigenfunction(self, sys_1d):
        f = shifted(squared(affine([1.0], 0.0)), -1.0)  # x^2 - 1
        sol = poisson_solve(sys_1d, f)
        x = np.array([[0.5], [1.5]])
        np.testing.assert_allclose(sys_1d.values(x) @ sol.coeffs,
                                   (x[:, 0] ** 2 - 1.0) / 2.0, atol=1e-10)

    def test_constant_rejected(self, sys_1d):
        with pytest.raises(MeanZeroViolationError):
            poisson_solve(sys_1d, constant(1.0, 1))

    def test_in_span_residual(self, sys_1d):
        # cubic polynomial rhs lies in the span: residual at round-off level
        f = affine([1.0], 0.0)
        cubic = squared(f)
        from gausscone.fields import ScalarField, product
        g, h = product(cubic, f), scaled(f, -3.0)
        rhs = ScalarField("x^3-3x", 1, lambda x, order: tuple(
            a + b for a, b in zip(g.jet(x, order), h.jet(x, order))))
        sol = poisson_solve(sys_1d, rhs)
        assert sol.residual <= 1e-6
        assert sol.projection_error <= 1e-9


class TestDuality:
    def test_coordinate_equality(self, sys_1d):
        res = duality_stability_residual(sys_1d, affine([1.0], 0.0))
        assert res["chain_holds"]
        assert res["upper"] == pytest.approx(0.0, abs=1e-10)
        assert res["middle"] == pytest.approx(0.0, abs=1e-10)

    def test_quadratic(self, sys_1d):
        # f = x^2 - 1: u = f/2, grad u = x, grad f = 2x.  With the chain
        # constant 1 + K_w = 1 the middle term is E|x - 2x|^2 = E x^2 = 1 and
        # the upper one E|grad f|^2 - E f^2 = 4 - 2 = 2, so 2 >= 1 >= 0 strict.
        f = shifted(squared(affine([1.0], 0.0)), -1.0)
        res = duality_stability_residual(sys_1d, f)
        assert res["upper"] == pytest.approx(2.0, rel=1e-9)
        assert res["middle"] == pytest.approx(1.0, rel=1e-9)
        assert res["chain_holds"]

    def test_seeded_poly_gauss(self, mu_partial):
        system = build_galerkin(mu_partial, 12)
        for seed in range(5):
            res = duality_stability_residual(
                system, poly_gauss(seed, 2, even_axes=frozenset({0})))
            assert res["chain_holds"]


class TestSemigroup:
    def test_constant_invariant(self, sys_1d):
        c = sys_1d.project(constant(1.0, 1))
        for t in (0.0, 0.5, 3.0):
            np.testing.assert_allclose(semigroup_apply(sys_1d, c, t), c,
                                       atol=1e-12)

    def test_coordinate_decay(self, sys_1d):
        c = sys_1d.project(affine([1.0], 0.0))
        x = np.array([[0.4], [1.0], [2.0]])
        evolved = sys_1d.values(x) @ semigroup_apply(sys_1d, c, 1.0)
        np.testing.assert_allclose(evolved, np.exp(-1.0) * x[:, 0], atol=1e-8)

    def test_contraction_rate(self, sys_1d):
        res = spectral_gap(sys_1d)
        f = poly_gauss(3, 1)
        c = sys_1d.project(f)
        c[0] = 0.0  # center
        norm0 = np.linalg.norm(c)
        for t in (0.25, 1.0, 2.5):
            ct = semigroup_apply(sys_1d, c, t)
            assert np.linalg.norm(ct) <= np.exp(-res.gap * t) * norm0 + 1e-8

    def test_decay_check_quadratic(self, sys_1d):
        f = shifted(scaled(squared(affine([1.0], 0.0)), 0.2), 1.0)
        grid = np.arange(0.0, 3.25, 0.25)
        for p, q in ((1.0, 2.0), (1.5, 2.0)):
            res = semigroup_decay_check(sys_1d, f, p, q, grid)
            assert res.decreasing and res.quotient_bounded
            assert res.phi0 == pytest.approx(res.phi0_expected, rel=1e-6)
            assert res.phi_limit == pytest.approx(res.phi_limit_expected,
                                                  rel=1e-9)

    def test_decay_limit_comes_from_the_kernel_eigenpair(self, sys_1d):
        # phi_limit is read off the eigenvector of the smallest eigenvalue;
        # swapping in the degree-one eigenvector must move it away from the
        # direct-quadrature ||f||_p^2
        f = shifted(scaled(squared(affine([1.0], 0.0)), 0.2), 1.0)
        vals, vecs = sys_1d.eigensystem()
        swapped = vecs.copy()
        swapped[:, [0, 1]] = vecs[:, [1, 0]]
        corrupt = dataclasses.replace(sys_1d, _eig=(vals, swapped))
        res = semigroup_decay_check(corrupt, f, 1.0, 2.0, [0.0, 1.0])
        assert abs(res.phi_limit - res.phi_limit_expected) > 1e-3 * res.phi_limit_expected

    def test_decay_check_tilted_weight(self):
        # negative tilt halves the curvature constant in the quotient bound
        w = make_weight(GaussianTilt(-0.5), 1)
        system = build_galerkin(make_measure(w, 1.0), 12)
        f = shifted(scaled(squared(affine([1.0], 0.0)), 0.1), 1.0)
        res = semigroup_decay_check(system, f, 1.0, 2.0,
                                    np.arange(0.0, 3.25, 0.25))
        assert res.decreasing and res.quotient_bounded

    def test_decay_check_shift_recorded(self, sys_1d):
        f = affine([1.0], 0.0)  # sign-changing
        res = semigroup_decay_check(sys_1d, f, 1.0, 2.0, [0.0, 0.5, 1.0])
        assert res.shift > 0

    def test_decay_check_shift_refused(self, sys_1d):
        with pytest.raises(DomainError):
            semigroup_decay_check(sys_1d, affine([1.0], 0.0), 1.0, 2.0,
                                  [0.0, 1.0], allow_shift=False)


# ---------------------------------------------------------------------------
# sum factorization against a dense assembly
# ---------------------------------------------------------------------------

def _dense_table(system, nodes, axis=None, order=0):
    """(N, m) values at the nodes of d^order/dx_axis^order of every basis
    function: the per-axis recurrence tables multiplied out node by node."""
    out = None
    for ax, (alpha, beta, scale) in enumerate(system.axes):
        d = order if ax == axis else 0
        table = orthonormal_polys(alpha, beta, nodes[:, ax] / scale,
                                  system.max_degree, d)[d]
        col = table[:, system.expo[:, ax]] / scale ** d
        out = col if out is None else out * col
    return out


# (weight, lambda, measure order, degree): the replication and partial_3d
# measures at their default degrees, the scaled and the tilted cases, and a
# cone constrained on the negative half line of axis 0 ("half-")
DENSE_CASES = [
    (make_weight(Monomial((1.5, 0.0)), 2), 1.0, 32, 16),
    (make_weight(Monomial((1.5, 0.0, 0.0)), 3), 1.0, 16, 10),
    *[(w, lam, 32, 12) for w, lam in SCALED_AND_TILTED],
    (make_weight(Monomial((1.0, 0.0)), 2, cone=Halfspace(2, (-1.0, 0.0))),
     1.0, 24, 12),
]


def _close(got, ref, rel=1e-13):
    ref = np.asarray(ref)
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


class TestSumFactorization:
    @pytest.fixture(scope="class", params=DENSE_CASES,
                    ids=["replication", "partial_3d", "scaled", "tilted",
                         "negative_half_line"])
    def dense(self, request):
        """A built system and its dense reference on the rule build_rule
        makes for the same density and order."""
        weight, lam, order, degree = request.param
        mu = make_measure(weight, lam, order=order)
        system = build_galerkin(mu, degree)
        rule = build_rule(weight, lam, order=max(order, degree + 1))
        np.testing.assert_allclose(system.nodes, rule.nodes, rtol=1e-15,
                                   atol=0)
        qw = rule.weights / rule.mass
        basis = _dense_table(system, rule.nodes)
        root_w = np.sqrt(qw)[:, None]
        grad = np.stack([_dense_table(system, rule.nodes, ax, 1)
                         for ax in range(weight.dim)], axis=1)
        lap = sum(_dense_table(system, rule.nodes, ax, 2)
                  for ax in range(weight.dim))
        stiffness = sum((g * root_w).T @ (g * root_w)
                        for g in np.moveaxis(grad, 1, 0))
        gram = (basis * root_w).T @ (basis * root_w)
        return system, {
            "nodes": rule.nodes, "weights": qw, "basis": basis,
            "stiffness": 0.5 * (stiffness + stiffness.T),
            "gram_residual": float(np.max(np.abs(gram - np.eye(system.size)))),
            "generator": generator(weight, rule.nodes, grad, lap, lam)}

    def test_stiffness(self, dense):
        system, ref = dense
        _close(system.stiffness, ref["stiffness"])

    def test_gram_residual(self, dense):
        system, ref = dense
        assert abs(system.gram_residual - ref["gram_residual"]) <= 1e-13

    def test_project(self, dense):
        system, ref = dense
        weight = system.measure.weight
        f = poly_gauss(5, weight.dim, even_axes=weight.cone.constrained_axes())
        _close(system.project(f),
               ref["basis"].T @ (ref["weights"] * f(ref["nodes"])))

    def test_node_values_of_a_block(self, dense):
        system, ref = dense
        block = np.random.default_rng(3).normal(size=(system.size, 4))
        _close(system.node_values(block), ref["basis"] @ block)

    def test_generator_at_nodes(self, dense):
        system, ref = dense
        coeffs = np.random.default_rng(4).normal(size=system.size)
        _close(system.generator_at_nodes(coeffs), ref["generator"] @ coeffs)


def test_poisson_residual_does_not_read_the_stiffness(mu_partial):
    # the residual applies gamma.generator to the solution at the nodes; a
    # corrupted stiffness gives a wrong solution and the residual shows it
    system = build_galerkin(mu_partial, 12)
    f = poly_gauss(11, 2, even_axes=frozenset({0}))
    g = shifted(f, -integrate(system.measure, f.value))
    assert poisson_solve(system, g).residual <= 1e-6
    bad = system.stiffness.copy()
    bad[1, 2] += 1e-3
    corrupt = dataclasses.replace(system, stiffness=bad)
    assert poisson_solve(corrupt, g).residual > 1e-6


def test_spectral_suite_in_four_dimensions():
    config = parse_config({"dim": 4, "weight": {"kind": "monomial",
                                                 "exponents": [1.5, 0, 0, 0]},
                           "quadrature": {"order": 8}, "suites": ["spectral"]})
    tracemalloc.start()
    try:
        report = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    checks = [c for suite in report.suites for c in suite.checks]
    assert checks and all(c["pass"] for c in checks)
    assert peak < 300 * 2 ** 20
