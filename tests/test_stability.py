"""Distances to the Gaussian optimizer families and the stability theorems.

Oracles: family members have zero distance by construction, and the search
recovers their lambda from either end of the bracket to 1e-7; the odd
witness x_n e^{-|x|^2/2} under a partial weight is orthogonal to every pure
Gaussian, so its squared distance is its norm, sqrt(pi)/4 (frozen from the
1-D integrals), and it is itself a member of the affine family at lambda = 1;
the zoomed argmin is checked against the brute-force grid-scan oracle, the
batched objective against one quadrature per integral and per lambda on
tensor, polar and Monte Carlo rules, and the search's own bookkeeping (at
most 11 objective calls, the reported distance the lowest value evaluated)
by wrapping the objective.
"""

import math

import numpy as np
import pytest

from gausscone import stability
from gausscone.cones import Halfspace
from gausscone.errors import ContractError, NotHomogeneousError, ParameterError
from gausscone.fields import (
    exp_axis,
    gaussian,
    hermite_witness,
    mass_dilated,
    poly_gauss,
    product,
)
from gausscone.functionals import _nu_moments
from gausscone.measures import make_measure, nu_integral
from gausscone.stability import (
    FAMILY_AFFINE_GAUSSIAN,
    FAMILY_GAUSSIAN,
    _objective,
    brute_force_lambda_scan,
    check_hup_stability,
    distance_to_family,
)
from gausscone.weights import DunklProduct, Monomial, Radial, make_weight

WITNESS_NORM_SQ = math.sqrt(math.pi) / 4.0


@pytest.fixture(scope="module")
def mu_abs():
    return make_measure(make_weight(Monomial((1.0, 0.0)), 2))


class TestDistance:
    def test_member_zero_distance(self, mu_abs):
        res = distance_to_family(mu_abs, gaussian(2.0, 2.0, 2))
        assert res.distance <= 1e-7
        assert res.lam == pytest.approx(2.0, rel=1e-6)
        assert res.c == pytest.approx(2.0, rel=1e-5)
        assert not res.degenerate

    def test_witness_degenerate_orthogonal(self, mu_abs):
        res = distance_to_family(mu_abs, hermite_witness(1, 2))
        assert res.degenerate
        assert res.distance ** 2 == pytest.approx(WITNESS_NORM_SQ, rel=1e-10)
        assert res.c == 0.0

    def test_witness_in_affine_family(self, mu_abs):
        res = distance_to_family(mu_abs, hermite_witness(1, 2),
                                 FAMILY_AFFINE_GAUSSIAN)
        assert res.distance <= 1e-7
        assert res.lam == pytest.approx(1.0, rel=1e-7)
        np.testing.assert_allclose(res.d, [0.0, 1.0], atol=1e-6)

    def test_tilde_never_exceeds_d(self, mu_abs):
        for seed in range(6):
            f = poly_gauss(seed, 2)
            d = distance_to_family(mu_abs, f, FAMILY_GAUSSIAN).distance
            dt = distance_to_family(mu_abs, f, FAMILY_AFFINE_GAUSSIAN).distance
            assert dt <= d + 1e-12

    def test_scaling_equivariance_of_argmin(self, mu_abs):
        f = poly_gauss(2, 2)
        base = distance_to_family(mu_abs, f)
        s = 2.0
        scaled_res = distance_to_family(mu_abs, mass_dilated(f, 1.0 / s, 0.0))
        assert scaled_res.lam == pytest.approx(s * base.lam, rel=1e-6)

    def test_golden_matches_grid_oracle(self, mu_abs):
        for seed in range(10):
            f = poly_gauss(seed + 50, 2)
            fast = distance_to_family(mu_abs, f)
            oracle = brute_force_lambda_scan(mu_abs, f, num=2001)
            assert fast.lam == pytest.approx(oracle.lam, rel=1e-6)
            assert fast.distance == pytest.approx(oracle.distance,
                                                  rel=1e-6, abs=1e-9)

    def test_unstructured_field_rejected(self, mu_abs):
        # Gaussian decay, but not a polynomial times a Gaussian
        f = product(gaussian(1.0, 1.0, 2), exp_axis(0.3, 0, 2))
        assert f.decay.is_gaussian and f.poly_gauss is None
        with pytest.raises(ContractError):
            distance_to_family(mu_abs, f)


def _per_lambda_objective(measure, f, lam, affine, norm_sq):
    """The objective at one lambda with b and the Gram matrix each from their
    own nu_integral call on its rate-matched rule."""
    rate_g = 0.5 / (lam * lam)

    def basis(pts):
        ones = np.ones((len(pts), 1))
        poly = np.hstack([ones, pts]) if affine else ones
        return poly * np.exp(-rate_g * np.sum(pts ** 2, axis=1))[:, None]

    b = nu_integral(measure, lambda x: f.value(x)[:, None] * basis(x),
                    f.decay.rate + rate_g)
    gram = nu_integral(measure, lambda x: basis(x)[:, :, None] * basis(x)[:, None, :],
                       2.0 * rate_g)
    coef = np.linalg.solve(gram, b)
    return norm_sq - float(b @ coef), coef


ROOT = (0.6, 0.8)
# tensor rules keyed by their dimension
RULES = {
    2: lambda: make_measure(make_weight(Monomial((1.0, 0.0)), 2)),
    3: lambda: make_measure(make_weight(Monomial((1.0, 0.0, 0.0)), 3)),
    "polar": lambda: make_measure(make_weight(Radial(1.0), 2, certify=False)),
    "monte_carlo": lambda: make_measure(
        make_weight(DunklProduct((ROOT,), (0.5,)), 2, cone=Halfspace(2, ROOT),
                    certify=False), mc_samples=200000),
}


class TestObjective:
    LAMS = (1e-2, 0.3, 1.0, 3.7, 1e2)

    @pytest.mark.parametrize("rule", list(RULES))
    @pytest.mark.parametrize("affine", [False, True])
    def test_batch_matches_per_lambda_quadrature(self, rule, affine):
        # the projections and the Gram matrix from the moment table
        # reproduce one quadrature per integral and per lambda
        mu = RULES[rule]()
        dim = mu.dim
        f = poly_gauss(4, dim)
        norm_sq = _nu_moments(mu, f).norm_sq
        objs, coefs = _objective(mu, f, np.array(self.LAMS), affine, norm_sq)
        assert objs.shape == (len(self.LAMS),)
        assert coefs.shape == (len(self.LAMS), dim + 1 if affine else 1)
        for lam, obj, coef in zip(self.LAMS, objs, coefs):
            ref_obj, ref_coef = _per_lambda_objective(mu, f, lam, affine, norm_sq)
            assert obj == pytest.approx(ref_obj, rel=1e-13)
            np.testing.assert_allclose(coef, ref_coef, rtol=1e-13,
                                       atol=1e-13 * np.max(np.abs(ref_coef)))


MEMBER_WEIGHTS = [(Monomial((1.0, 0.0)), 2), (Monomial((1.5, 0.0, 0.0)), 3),
                  (Radial(1.5), 1)]


class TestSearch:
    # 0.01 and 100 are the ends of the log(lambda) bracket
    @pytest.mark.parametrize("lam", [0.01, 0.05, 1.3, 20.0, 100.0])
    @pytest.mark.parametrize("spec, dim", MEMBER_WEIGHTS)
    def test_member_lambda_recovered(self, spec, dim, lam):
        mu = make_measure(make_weight(spec, dim))
        res = distance_to_family(mu, gaussian(1.7, lam, dim))
        assert not res.degenerate
        assert res.lam == pytest.approx(lam, rel=1e-7)
        assert res.distance <= 1e-7

    @pytest.mark.parametrize("family", [FAMILY_GAUSSIAN, FAMILY_AFFINE_GAUSSIAN])
    def test_calls_and_reported_minimum(self, mu_abs, monkeypatch, family):
        # the pre-scan and at most 10 zoom rounds, each one batched call;
        # the distance is the lowest value any call evaluated
        calls = []
        objective = stability._objective

        def counted(*args):
            out = objective(*args)
            calls.append(out[0])
            return out

        monkeypatch.setattr(stability, "_objective", counted)
        for seed in range(8):
            calls.clear()
            res = distance_to_family(mu_abs, poly_gauss(seed, 2), family)
            assert 2 <= len(calls) <= 11
            assert res.iterations == (len(calls) - 1) * len(calls[-1])
            assert res.distance == math.sqrt(np.min(np.concatenate(calls)))

    @pytest.mark.parametrize("points", [0, 1, 2])
    def test_prescan_needs_three_points(self, mu_abs, points):
        with pytest.raises(ParameterError, match=f"prescan_points = {points}"):
            distance_to_family(mu_abs, gaussian(2.0, 2.0, 2),
                               prescan_points=points)
        res = distance_to_family(mu_abs, gaussian(2.0, 2.0, 2), prescan_points=3)
        assert res.lam == pytest.approx(2.0, rel=1e-7)


class TestHupStability:
    def test_member_equality(self, mu_abs):
        rep = check_hup_stability(mu_abs, gaussian(1.0, 1.3, 2), improved=True)
        assert rep.passed
        assert abs(rep.delta) <= 1e-9
        assert rep.distance_sq <= 1e-9

    def test_witness_equality_chain(self, mu_abs):
        rep = check_hup_stability(mu_abs, hermite_witness(1, 2), improved=True)
        assert rep.passed
        assert rep.delta == pytest.approx(WITNESS_NORM_SQ, rel=1e-8)
        assert rep.distance_sq == pytest.approx(WITNESS_NORM_SQ, rel=1e-8)
        assert abs(rep.basic_deficit) <= 1e-6
        assert rep.improved_distance_sq <= 1e-9
        assert rep.diagnostics["lambda_star"] == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("spec,dim", [
        (Monomial((0.0, 0.0)), 2),
        (Monomial((1.0, 0.0)), 2),
        (Monomial((1.0, 2.0)), 2),
        (Radial(1.5), 1),
    ])
    def test_seeded_fields_basic_and_improved(self, spec, dim):
        mu = make_measure(make_weight(spec, dim))
        for seed in range(20):
            f = poly_gauss(seed + 800, dim)
            rep = check_hup_stability(mu, f, improved=True)
            assert rep.basic_deficit >= -1e-7
            assert rep.improved_deficit >= -1e-7
            assert rep.passed

    def test_zero_deficit_implies_near_family(self, mu_abs):
        # contrapositive of the stability bound at numeric scale: a tiny
        # deficit forces a small distance relative to the field norm
        f = gaussian(1.4, 0.9, 2)
        rep = check_hup_stability(mu_abs, f)
        norm = math.sqrt(nu_integral(mu_abs, lambda x: f.value(x) ** 2,
                                     2.0 * f.decay.rate))
        assert rep.delta <= 1e-8
        assert math.sqrt(rep.distance_sq) <= 1e-3 * norm

    def test_non_homogeneous_rejected(self, w_tilt):
        mu = make_measure(w_tilt)
        with pytest.raises(NotHomogeneousError):
            check_hup_stability(mu, gaussian(1.0, 1.0, 1))
        with pytest.raises(NotHomogeneousError):
            distance_to_family(mu, gaussian(1.0, 1.0, 1))
