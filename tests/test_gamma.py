"""Generator, carre du champ, Gamma_2, CD margin, Bochner and Neumann checks.

Derived oracles: generator values on monomial weights are cross-checked by
finite differences of w-weighted divergence form; Gamma_2 closed forms for
|x|^2/2 and affine fields are computed by hand.
"""

import dataclasses

import numpy as np
import pytest

from gausscone import weights
from gausscone.cones import FullSpace, Orthant
from gausscone.errors import DomainError, NoBoundaryError, SingularityError
from gausscone.fields import (
    ScalarField,
    affine,
    constant,
    exp_axis,
    gaussian,
    hermite_witness,
    poly_gauss,
    scaled,
    squared,
)
from gausscone.gamma import (
    apply_generator,
    generator,
    bochner_residual,
    carre_du_champ,
    cd_margin,
    gamma2,
    integration_by_parts_residual,
    is_neumann_admissible,
    neumann_residual,
)
from gausscone.measures import NODE_BLOCK, make_measure
from gausscone.polys import PolyND
from gausscone.weights import DunklProduct, GaussianTilt, Monomial, make_weight


def _norm_sq_field(dim):
    def jet(p, order):
        return (np.sum(p ** 2, axis=1), 2.0 * p,
                np.broadcast_to(2.0 * np.eye(dim), (len(p), dim, dim)).copy()
                )[:order + 1]

    return ScalarField(name="|x|^2", dim=dim, jet=jet)


class TestGenerator:
    def test_coordinate(self, w_one_2d):
        f = affine([1.0, 0.0], 0.0)
        x = np.array([0.7, -0.3])
        assert apply_generator(w_one_2d, f, x) == pytest.approx(-0.7)

    def test_norm_sq(self, w_one_2d):
        f = _norm_sq_field(2)
        x = np.array([1.0, 2.0])
        assert apply_generator(w_one_2d, f, x) == pytest.approx(2 * 2 - 2 * 5.0)

    def test_monomial_drift(self, w_mono_12):
        # L x_i = a_i / x_i - x_i; cross-checked against the analytic formula
        f = affine([1.0, 0.0], 0.0)
        for x in ([0.5, 1.0], [2.0, 0.3]):
            expected = 1.0 / x[0] - x[0]
            assert apply_generator(w_mono_12, f, np.array(x)) == pytest.approx(expected)

    def test_generator_fd_oracle(self, w_partial):
        # (1/rho) div(rho grad f) with rho = w e^{-|x|^2/2} equals L_w f;
        # verified by finite differences at interior points
        f = poly_gauss(11, 2, even_axes=frozenset({0}))
        x = np.array([0.8, -0.4])
        h = 1e-5

        def rho(pt):
            return (w_partial.eval(pt) * np.exp(-0.5 * np.sum(np.asarray(pt) ** 2)))

        div = 0.0
        for ax in range(2):
            step = np.zeros(2)
            step[ax] = h
            up = rho(x + step / 2) * (f.value((x + step)[None])[0]
                                      - f.value(x[None])[0]) / h
            dn = rho(x - step / 2) * (f.value(x[None])[0]
                                      - f.value((x - step)[None])[0]) / h
            div += (up - dn) / h
        assert div / rho(x) == pytest.approx(
            apply_generator(w_partial, f, x), rel=1e-5, abs=1e-6)

    def test_scale_divides_drift(self, w_one_2d):
        # generator of mu_{1,lambda}: L x_1 = -x_1 / lambda^2
        pts = np.array([[0.7, -0.3], [1.5, 2.0]])
        grad = np.tile([1.0, 0.0], (2, 1))
        out = generator(w_one_2d, pts, grad, np.zeros(2), lam=2.0)
        np.testing.assert_allclose(out, -pts[:, 0] / 4.0, rtol=1e-15)

    def test_batch_matches_single_fields(self, w_partial):
        # the (N, n, m) batch form used by the Galerkin basis agrees column
        # by column with the single-field form
        fields = [poly_gauss(k, 2, even_axes=frozenset({0})) for k in range(3)]
        rng = np.random.default_rng(7)
        pts = w_partial.cone.sample_interior(rng, 50, radius=3.0)
        grad = np.stack([f.grad(pts) for f in fields], axis=2)
        lap = np.stack([np.trace(f.hess(pts), axis1=1, axis2=2)
                        for f in fields], axis=1)
        batch = generator(w_partial, pts, grad, lap, lam=1.3)
        for k in range(len(fields)):
            single = generator(w_partial, pts, grad[:, :, k], lap[:, k], lam=1.3)
            np.testing.assert_allclose(batch[:, k], single, rtol=1e-14)


def _dunkl_half_plane():
    return make_weight(DunklProduct(((0.6, 0.8),), (0.5,)), 2)


# points a caller gives: outside the half-plane <(0.6, 0.8), x> > 0, and on
# its boundary line, where w vanishes (the origin, where <beta, x> is 0
# exactly)
BAD_POINTS = [([-0.6, -0.8], DomainError), ([0.0, 0.0], SingularityError)]


class TestCallerPoints:
    """L_w trusts rule nodes, but every entry point that takes a caller's
    points still refuses those where log w has no derivative."""

    @pytest.mark.parametrize("x, error", BAD_POINTS, ids=["outside", "zero-set"])
    def test_entry_points_refuse(self, x, error):
        w = _dunkl_half_plane()
        f = gaussian(1.0, 1.2, 2)
        for call in (lambda: w.grad_log(x), lambda: w.hess_log(x),
                     lambda: apply_generator(w, f, x),
                     lambda: apply_generator(w, f, np.array([[1.0, 1.0], x])),
                     lambda: gamma2(w, f, x)):
            with pytest.raises(error):
                call()
        # the stencil around a point on the boundary leaves the cone
        with pytest.raises((DomainError, SingularityError)):
            bochner_residual(w, f, x, h=1e-2)

    def test_stencil_leaving_the_cone_is_refused(self):
        # the center is inside, the stencil x - h e_1 is not
        w = make_weight(Monomial((1.5, 0.0)), 2)
        with pytest.raises(DomainError):
            bochner_residual(w, gaussian(1.0, 1.2, 2), [0.005, 0.3], h=1e-2)

    def test_rule_nodes_are_not_rechecked(self, monkeypatch):
        calls = []
        check = weights.Weight.check_regular
        monkeypatch.setattr(weights.Weight, "check_regular",
                            lambda self, pts: calls.append(len(pts))
                            or check(self, pts))
        mu = make_measure(_dunkl_half_plane(), 1.0, mc_samples=4096, seed=0)
        f = poly_gauss(1, 2)
        integration_by_parts_residual(mu, f, gaussian(1.0, 1.2, 2))
        assert calls == []
        apply_generator(mu.weight, f, mu.nodes[:5])
        assert calls == [5]


class TestCarreDuChamp:
    def test_affine(self):
        f = affine([1.0, 2.0], 0.3)
        x = np.array([0.4, 0.6])
        assert carre_du_champ(f, f, x) == pytest.approx(5.0)

    def test_orthogonal_coordinates(self):
        f = affine([1.0, 0.0], 0.0)
        g = affine([0.0, 1.0], 0.0)
        assert carre_du_champ(f, g, np.array([1.0, 1.0])) == 0.0

    def test_nonnegative(self, rng):
        f = poly_gauss(8, 2)
        pts = rng.normal(size=(200, 2))
        assert np.all(carre_du_champ(f, f, pts) >= 0.0)


class TestGamma2:
    def test_affine_flat_weight(self, w_one_2d):
        f = affine([1.0, 2.0], 0.0)
        assert gamma2(w_one_2d, f, np.array([0.3, 0.4])) == pytest.approx(5.0)

    def test_affine_tilt(self):
        w = make_weight(GaussianTilt(-0.5), 2)
        f = affine([1.0, 2.0], 0.0)
        assert gamma2(w, f, np.array([0.3, 0.4])) == pytest.approx(0.5 * 5.0)

    def test_half_norm_sq(self, w_one_2d):
        f = ScalarField(
            name="|x|^2/2", dim=2,
            jet=lambda p, order: (
                0.5 * np.sum(p ** 2, axis=1), p,
                np.broadcast_to(np.eye(2), (len(p), 2, 2)).copy())[:order + 1])
        x = np.array([1.0, 2.0])
        assert gamma2(w_one_2d, f, x) == pytest.approx(2.0 + 5.0)


class TestCdMargin:
    def test_constant_field_zero(self, w_partial):
        assert cd_margin(w_partial, constant(3.0, 2)) == pytest.approx(0.0)

    def test_monomial_poly_gauss(self, w_mono_12):
        f = poly_gauss(1, 2)
        assert cd_margin(w_mono_12, f, num_points=10_000, seed=2) >= -1e-9

    def test_tilt_affine_equality(self):
        w = make_weight(GaussianTilt(0.7), 2)
        margin = cd_margin(w, affine([1.0, -1.0], 0.2), num_points=2000)
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_all_builtin_weights(self, rng):
        fields = [poly_gauss(k, 2) for k in range(3)] + [gaussian(1.0, 1.3, 2)]
        weights = [make_weight(Monomial((0.0, 0.0)), 2),
                   make_weight(Monomial((1.5, 0.0)), 2),
                   make_weight(Monomial((1.0, 2.0)), 2),
                   make_weight(GaussianTilt(-0.5), 2)]
        for w in weights:
            for f in fields:
                assert cd_margin(w, f, num_points=5000, seed=7) >= -1e-9


class TestBochner:
    def test_affine_exact(self, w_one_2d):
        f = affine([1.0, 2.0], 0.0)
        assert bochner_residual(w_one_2d, f, np.array([0.5, 0.5])) < 1e-9

    def test_norm_sq_small(self, w_one_2d):
        res = bochner_residual(w_one_2d, _norm_sq_field(2),
                               np.array([0.7, -0.2]), h=1e-4)
        assert res < 1e-6

    def test_h_squared_convergence(self, w_one_2d):
        f = poly_gauss(6, 2)
        x = np.array([0.4, 0.9])
        r1 = bochner_residual(w_one_2d, f, x, h=2e-2)
        r2 = bochner_residual(w_one_2d, f, x, h=1e-2)
        assert r1 / r2 == pytest.approx(4.0, abs=0.5)


class TestNeumann:
    def test_radial_field_zero_on_orthant(self):
        cone = Orthant(2, frozenset({0, 1}))
        f = gaussian(1.0, 1.0, 2)  # grad parallel to x, and x . eta = 0
        assert neumann_residual(f, cone) < 1e-12

    def test_coordinate_field_unit(self):
        cone = Orthant(2, frozenset({0}))
        f = affine([1.0, 0.0], 0.0)
        assert neumann_residual(f, cone) == pytest.approx(1.0)

    def test_even_field_exact_zero(self):
        cone = Orthant(2, frozenset({0}))
        f = poly_gauss(3, 2, even_axes=frozenset({0}))
        assert neumann_residual(f, cone) == 0.0

    def test_fullspace_raises(self):
        with pytest.raises(NoBoundaryError):
            neumann_residual(constant(1.0, 2), FullSpace(2))

    def test_admissibility_gate(self):
        cone = Orthant(2, frozenset({0}))
        assert is_neumann_admissible(poly_gauss(3, 2, even_axes=frozenset({0})), cone)
        assert not is_neumann_admissible(affine([1.0, 0.0], 0.0), cone)


class TestIntegrationByParts:
    def test_symmetry_on_library_pairs(self, mu_partial, w_partial):
        fields = [constant(2.0, 2), affine([0.0, 1.0], 0.3),
                  exp_axis(0.5, 1, 2), gaussian(1.0, 1.2, 2),
                  poly_gauss(0, 2, even_axes=frozenset({0})),
                  squared(hermite_witness(1, 2))]
        # lambda = 1.7 runs the generator of mu_{w,lambda} off lambda = 1
        for mu in (mu_partial, make_measure(w_partial, 1.7)):
            for i, f in enumerate(fields):
                for g in fields[i:]:
                    assert integration_by_parts_residual(mu, f, g) < 1e-7

    @pytest.mark.parametrize("case", ["structured", "rescaled", "exp_axis"])
    @pytest.mark.parametrize("mc_samples", [None, 20_000], ids=["tensor", "mc"])
    def test_self_pair_reuses_the_jet(self, w_partial, case, mc_samples,
                                      monkeypatch):
        # g is f reuses f's value and gradient where they are f's order-1
        # jet bit for bit: a plain structured field's (its jet is its
        # PolyGauss's) and exp_axis's (a jet's lower order is a prefix of its
        # higher one); a rescaled field's jet rounds apart from its rescaled
        # PolyGauss, so its self-pair takes g's jet.  A copy of f (not the
        # same object) always takes its own, and both give the same bits
        mu = make_measure(w_partial, 1.0, order=12, mc_samples=mc_samples,
                          seed=2)
        blocks = -(-len(mu.nodes) // NODE_BLOCK)
        # order-1 jets taken: a PolyGauss jet's plain table of the
        # polynomial (its Laplacian call asks for one more row), or an
        # order-1 call of exp_axis's jet
        order_one = []
        derivatives = PolyND.derivatives

        def counted(poly, points, order, laplacian=False):
            if order == 1 and not laplacian:
                order_one.append(order)
            return derivatives(poly, points, order, laplacian)

        monkeypatch.setattr(PolyND, "derivatives", counted)
        base = exp_axis(0.5, 1, 2)

        def jet(x, order):
            if order == 1:
                order_one.append(order)
            return base.jet(x, order)

        f = {"structured": poly_gauss(0, 2),
             "rescaled": scaled(poly_gauss(0, 2), 2.0),
             "exp_axis": dataclasses.replace(base, jet=jet)}[case]
        copy = dataclasses.replace(f)
        assert copy is not f
        self_pair = integration_by_parts_residual(mu, f, f)
        taken = len(order_one)
        assert self_pair == integration_by_parts_residual(mu, f, copy)
        assert taken == (blocks if case == "rescaled" else 0)
        assert len(order_one) - taken == blocks

    def test_one_nu_integral_call(self, mu_partial, nu_calls):
        f = poly_gauss(0, 2, even_axes=frozenset({0}))
        integration_by_parts_residual(mu_partial, f, gaussian(1.0, 1.2, 2))
        assert len(nu_calls) == 1

    def test_mean_of_generator_vanishes(self, mu_partial):
        # g = 1 case: int L_w f dmu = 0 for Neumann-compatible f
        for f in (exp_axis(0.4, 1, 2), gaussian(1.0, 1.0, 2),
                  poly_gauss(5, 2, even_axes=frozenset({0}))):
            vals = apply_generator(mu_partial.weight, f, mu_partial.nodes)
            mean = float(np.sum(mu_partial.rule.weights * mu_partial.normalization * vals))
            assert abs(mean) < 1e-8
