"""Inequality checkers: equality witnesses, perturbation limits, parameter
contracts and the bookkeeping identities.

Derived oracles frozen here:
  * Beckner at w = 1, n = 1, p = 1, q = 2, f = 1 + 0.01 x: closed Gaussian
    moments give lhs = rhs = eps^2 up to a tail correction of order
    e^{-5000}; the check passes with |deficit| below 1e-10.
  * gradient stability at w = 1, f = x^2: E x^2 = 1, E x^3 = 0, E x^4 = 3,
    so rhs = 4 - 2*1 = 2 and lhs = 4/2 = 2 (exact equality).
  * Euclidean LSI equality value log(C_w)/C_w - (n+alpha)/(2 C_w) at w = 1,
    n = 1: mpmath evaluates -3.5567514473: both sides must match it.
"""

import math

import numpy as np
import pytest

from gausscone.errors import ContractError, NotHomogeneousError, ParameterError
from gausscone.fields import (
    _rescaled,
    affine,
    constant,
    exp_axis,
    gaussian,
    gaussian_quarter,
    hermite_witness,
    one_plus,
    poly_gauss,
    scaled,
    squared,
)
from gausscone.functionals import (
    _energy,
    _mean_variance,
    dirichlet_energy,
    entropy,
    lq_norm,
    variance,
)
from gausscone.inequalities import (
    check_beckner,
    check_euclidean_lsi,
    check_hup,
    check_lsi,
    check_lsi_equivalence,
    check_poincare,
    check_scale_poincare,
    euclidean_lsi_rescaling_invariance,
    limit,
    sharpness_sweep,
)
from gausscone.gamma import is_neumann_admissible
from gausscone.measures import integrate, make_measure
from gausscone.suites import default_library
from gausscone.weights import GaussianTilt, Monomial, make_weight

import oracles

SHARED_FORMULA_FIELDS = [
    poly_gauss(3, 2, even_axes=frozenset({0})),
    exp_axis(0.4, 1, 2),
    affine([0.0, 1.0], 0.3),
]
EUCLID_EQUALITY_1D = -3.5567514473020886  # log(C_w)/C_w - 1/(2 C_w), C_w = (2pi)^{-1/2}
ENT_HALF = 0.8243606353500641


class TestSharedFormulas:
    """The mu-functionals and the checkers share one formula each, so the
    functionals reproduce the checkers' diagnostics bit for bit."""

    @pytest.mark.parametrize("f", SHARED_FORMULA_FIELDS,
                             ids=lambda f: f.name)
    def test_functionals_equal_checker_diagnostics(self, mu_partial, f):
        mu = mu_partial
        for p, q in ((1.0, 2.0), (1.0, 1.5)):
            beckner = check_beckner(mu, f, p, q).diagnostics
            assert beckner["norm_q"] == lq_norm(mu, f, q)
            assert beckner["norm_p"] == lq_norm(mu, f, p)
            assert beckner["energy_q"] == dirichlet_energy(mu, f, q)
        basic = check_poincare(mu, f, 1.5, "basic").diagnostics
        assert basic["variance"] == variance(mu, f)
        assert basic["energy_q"] == dirichlet_energy(mu, f, 1.5)
        for level in ("gradient_stability", "l2_stability"):
            stable = check_poincare(mu, f, 2.0, level).diagnostics
            assert stable["variance"] == variance(mu, f)
            assert stable["energy"] == dirichlet_energy(mu, f, 2.0)
        lsi = check_lsi(mu, f, 2.0).diagnostics
        assert lsi["energy_q"] == dirichlet_energy(mu, f, 2.0)
        assert lsi["entropy_q"] == entropy(mu, squared(f))

    @pytest.mark.parametrize("level", ["basic", "improved"])
    def test_scale_poincare_variance_is_variance(self, w_partial, level):
        # scale lambda is the dilated field g(y) = f(s y), s = lambda/sigma,
        # on the run measure itself, whose order or Monte Carlo sample count
        # and seed it keeps; the scale-lambda measure of the same settings
        # gives the same integrals up to round-off
        f = SHARED_FORMULA_FIELDS[0]
        lam = 1.3
        g = _rescaled(f, "g", lam, 1.0)
        for settings in ({"order": 16}, {"mc_samples": 2 ** 12, "seed": 5}):
            mu = make_measure(w_partial, 1.0, **settings)
            chk = check_scale_poincare(mu, f, lam, level)
            energy = dirichlet_energy(mu, g, 2.0)
            assert chk.diagnostics["variance"] == variance(mu, g)
            assert chk.rhs == (energy if level == "improved"
                               else energy / lam ** 2)
            at_lam = make_measure(w_partial, lam, **settings)
            assert chk.diagnostics["variance"] == pytest.approx(
                variance(at_lam, f), rel=1e-13)
            assert chk.rhs == pytest.approx(
                (lam * lam if level == "improved" else 1.0)
                * dirichlet_energy(at_lam, f, 2.0), rel=1e-13)


class TestBeckner:
    def test_constant_equality(self, mu_partial):
        chk = check_beckner(mu_partial, constant(2.0, 2), 1.0, 2.0)
        assert chk.passed and chk.lhs == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_small_perturbation(self, mu_one_1d):
        chk = check_beckner(mu_one_1d, one_plus(0.01, affine([1.0], 0.0)), 1.0, 2.0)
        assert chk.passed
        assert chk.lhs == pytest.approx(1e-4, abs=1e-10)
        assert chk.rhs == pytest.approx(1e-4, abs=1e-10)
        assert chk.deficit >= -1e-12

    def test_parameter_contract(self, mu_one_1d):
        with pytest.raises(ParameterError):
            check_beckner(mu_one_1d, constant(1.0, 1), 2.0, 2.0)
        with pytest.raises(ParameterError):
            check_beckner(mu_one_1d, constant(1.0, 1), 0.5, 2.0)

    def test_q_below_two_informational(self, mu_one_1d):
        chk = check_beckner(mu_one_1d, poly_gauss(1, 1), 1.0, 1.5)
        assert chk.informational

    def test_sharpness_ratio_to_one(self, mu_partial):
        u = affine([0.0, 1.0], 0.0)
        sweep = sharpness_sweep(
            lambda f: check_beckner(mu_partial, f, 1.0, 2.0),
            "perturbation", u=u, eps_list=[0.1, 0.05, 0.025])
        assert sweep.extrapolated_ratio == pytest.approx(1.0, abs=1e-3)

    def test_p_to_one_recovers_variance(self, mu_one_2d):
        for f in (one_plus(0.3, poly_gauss(2, 2)), exp_axis(0.4, 0, 2)):
            chk = check_beckner(mu_one_2d, f, 1.0 + 1e-6, 2.0)
            var = variance(mu_one_2d, f)
            assert abs(chk.lhs - var) <= 1e-4 * (1.0 + var)

    def test_p_to_two_approaches_lsi_lhs(self, mu_one_1d):
        # Taylor limit of the Beckner lhs at p -> q = 2 is the entropy lhs
        # for L2-normalized f
        f = one_plus(0.2, affine([1.0], 0.0))
        lsi = check_lsi(mu_one_1d, f, 2.0)
        norm = math.sqrt(float(np.sum(
            mu_one_1d.rule.weights * mu_one_1d.normalization
            * f.value(mu_one_1d.nodes) ** 2)))
        fn = scaled(f, 1.0 / norm)
        chk = check_beckner(mu_one_1d, fn, 2.0 - 1e-5, 2.0)
        # lsi lhs is reported as Ent(f^2); the Beckner limit gives half of it
        # for the normalized field
        assert abs(2.0 * chk.lhs - lsi.lhs / norm ** 2 * 1.0) <= 1e-4 * (
            1.0 + abs(lsi.lhs))


class TestPoincare:
    def test_partial_affine_equality(self, mu_partial):
        chk = check_poincare(mu_partial, affine([0.0, 3.0], 1.0))
        assert chk.lhs == pytest.approx(9.0, rel=1e-10)
        assert chk.rhs == pytest.approx(9.0, rel=1e-10)
        assert abs(chk.deficit) <= 1e-8

    def test_gradient_stability_x_squared(self, mu_one_1d):
        chk = check_poincare(mu_one_1d, squared(affine([1.0], 0.0)),
                             level="gradient_stability")
        assert chk.lhs == pytest.approx(2.0, rel=1e-10)
        assert chk.rhs == pytest.approx(2.0, rel=1e-10)

    def test_constant_all_levels(self, mu_partial):
        for level in ("basic", "gradient_stability", "l2_stability"):
            chk = check_poincare(mu_partial, constant(5.0, 2), level=level)
            assert chk.passed
            assert abs(chk.lhs) <= 1e-10 and abs(chk.rhs) <= 1e-10

    def test_l2_stability_x_equality_chain(self, mu_one_1d):
        # f = x: Pi(f) = x - x = 0 and rhs = 1 - 1 = 0
        chk = check_poincare(mu_one_1d, affine([1.0], 0.0), level="l2_stability")
        assert abs(chk.lhs) <= 1e-12 and abs(chk.rhs) <= 1e-12

    def test_stability_requires_q2(self, mu_one_1d):
        with pytest.raises(ParameterError):
            check_poincare(mu_one_1d, constant(1.0, 1), q=3.0,
                           level="gradient_stability")

    def test_nesting_gradient_implies_basic(self, mu_one_2d):
        # rhs_basic - lhs_basic = rhs_grad and rhs_grad >= lhs_grad >= 0
        for seed in range(5):
            f = poly_gauss(seed, 2)
            basic = check_poincare(mu_one_2d, f)
            grad = check_poincare(mu_one_2d, f, level="gradient_stability")
            assert grad.rhs == pytest.approx(basic.rhs - basic.lhs, rel=1e-9,
                                             abs=1e-12)
            assert grad.rhs >= grad.lhs >= -1e-12

    @pytest.mark.parametrize("exponents, settings", [
        ((1.5, 0.5), {"order": 24}), ((1.5, 0.5, 1.0), {"order": 12}),
        ((1.5, 0.5), {"mc_samples": 20001, "seed": 4}),  # 3 node blocks
    ], ids=["tensor2d", "tensor3d", "mc"])
    def test_stability_terms_equal_whole_array_formulas(self, exponents,
                                                        settings):
        # the per-axis and per-block forms add and multiply in the order of
        # the whole-array expressions they replace, so they agree bit for
        # bit; on the orthant no barycenter component is zero
        dim = len(exponents)
        mu = make_measure(make_weight(Monomial(exponents), dim), 1.0,
                          **settings)
        c = 1.0 + mu.weight.kw
        for seed in range(3):
            f = poly_gauss(seed, dim)
            vals, grad = mu.node_jet(f)
            mean, _ = _mean_variance(mu, vals)
            pts = mu.nodes
            v, mx = integrate(mu, np.stack([(vals - mean) * pts.T, pts.T])
                              .transpose(2, 0, 1))
            grad_chk = check_poincare(mu, f, level="gradient_stability")
            assert grad_chk.diagnostics["projection_vector"] == v.tolist()
            assert grad_chk.lhs == 0.5 * _energy(mu, grad - c * v, 2.0)
            l2_chk = check_poincare(mu, f, level="l2_stability")
            assert l2_chk.diagnostics["measure_barycenter"] == mx.tolist()
            pi = vals - mean - c * ((pts - mx) @ v)
            assert l2_chk.lhs == 0.5 * c * integrate(mu, pi ** 2)

    def test_shift_and_sign_invariance(self, mu_one_2d):
        f = poly_gauss(3, 2)
        base = check_poincare(mu_one_2d, f)
        shifted_chk = check_poincare(mu_one_2d, one_plus(1.0, f))
        flipped = check_poincare(mu_one_2d, scaled(f, -1.0))
        assert base.deficit == pytest.approx(shifted_chk.deficit, abs=1e-10)
        assert base.deficit == pytest.approx(flipped.deficit, abs=1e-10)


class TestScalePoincare:
    def test_lambda_one_matches_basic(self, mu_partial):
        f = poly_gauss(1, 2, even_axes=frozenset({0}))
        a = check_scale_poincare(mu_partial, f, 1.0)
        b = check_poincare(mu_partial, f)
        assert a.deficit == pytest.approx(b.deficit, abs=1e-10)

    def test_free_axis_equality_all_scales(self, mu_partial):
        f = affine([0.0, 1.0], 0.0)
        for lam in (0.5, 1.0, 2.0):
            chk = check_scale_poincare(mu_partial, f, lam)
            assert abs(chk.deficit) <= 1e-10

    def test_constant_improved_all_zero(self, mu_partial):
        chk = check_scale_poincare(mu_partial, constant(2.0, 2), 1.5,
                                   level="improved")
        assert abs(chk.lhs) <= 1e-12 and abs(chk.rhs) <= 1e-12

    def test_improved_holds_seeded(self, mu_partial):
        for seed in range(5):
            f = poly_gauss(seed + 40, 2, even_axes=frozenset({0}))
            chk = check_scale_poincare(mu_partial, f, 1.3, level="improved")
            assert chk.passed

    def test_bad_lambda(self, mu_partial):
        with pytest.raises(ParameterError):
            check_scale_poincare(mu_partial, constant(1.0, 2), -1.0)

    @pytest.mark.parametrize("level", ["basic", "improved"])
    def test_non_homogeneous_weight_is_refused(self, level):
        # the dilation identity and the theorem both need a degree; a Gaussian
        # tilt once reported FAIL with deficit -1 on an affine field here
        mu = make_measure(make_weight(GaussianTilt(2.0), 2), 1.0, order=16)
        with pytest.raises(NotHomogeneousError):
            check_scale_poincare(mu, affine([1.0, 0.0], 0.0), 0.5, level)

    @pytest.mark.parametrize("settings", [
        {"order": 16}, {"mc_samples": 2 ** 12, "seed": 5}], ids=["tensor", "mc"])
    def test_matches_scale_lambda_least_squares(self, w_partial, settings):
        # against lhs, rhs, variance and the least-squares affine gap of (1, x)
        # on the scale-lambda measure, for every library field the suite runs,
        # to 1e-12 relative; the gap, a difference of two terms the size of
        # the variance, to 1e-12 of the variance.  The constant's integrals
        # are round-off of size 1e-30 on the oracle's side and 0 on ours.
        mu = make_measure(w_partial, 1.0, **settings)
        c = 1.0 + w_partial.kw
        fields = [f for f in default_library(w_partial)
                  if is_neumann_admissible(f, w_partial.cone,
                                           limit("neumann_admission"))]
        assert len(fields) >= 5
        for lam in (0.5, 1.3, 2.0):
            at_lam = make_measure(w_partial, lam, **settings)
            for f in fields:
                for level in ("basic", "improved"):
                    chk = check_scale_poincare(mu, f, lam, level)
                    ref = oracles.scale_poincare(at_lam, f, c, level)
                    var = ref["variance"]
                    for key in ("lhs", "rhs"):
                        assert getattr(chk, key) == pytest.approx(
                            ref[key], rel=1e-12, abs=1e-24)
                    assert chk.diagnostics["variance"] == pytest.approx(
                        var, rel=1e-12, abs=1e-24)
                    if level == "improved":
                        assert chk.diagnostics["affine_gap"] == pytest.approx(
                            ref["affine_gap"], rel=1e-12, abs=1e-12 * var + 1e-24)


class TestLsi:
    def test_constant(self, mu_partial):
        chk = check_lsi(mu_partial, constant(3.0, 2))
        assert chk.passed and abs(chk.lhs) <= 1e-12

    def test_partial_exp_equality(self, mu_partial):
        chk = check_lsi(mu_partial, exp_axis(0.5, 1, 2))
        assert chk.lhs == pytest.approx(ENT_HALF, rel=1e-9)
        assert chk.rhs == pytest.approx(ENT_HALF, rel=1e-9)

    def test_strict_inequality_generic(self, mu_one_1d):
        chk = check_lsi(mu_one_1d, one_plus(0.1, affine([1.0], 0.0)))
        assert chk.passed and chk.deficit > 1e-6

    def test_tilt_constant_scales(self):
        w = make_weight(GaussianTilt(-0.5), 1)
        mu = make_measure(w, 1.0)
        chk = check_lsi(mu, exp_axis(0.5, 0, 1))
        # for tilted Gaussians e^{bx} is no longer extremal but the
        # 1/(1+K_w) constant must still dominate
        assert chk.passed

    def test_sign_invariance(self, mu_one_2d):
        f = poly_gauss(5, 2)
        a = check_lsi(mu_one_2d, f)
        b = check_lsi(mu_one_2d, scaled(f, -1.0))
        assert a.deficit == pytest.approx(b.deficit, abs=1e-10)

    def test_general_q_form(self, mu_partial):
        # for ||f||_q = 1 the reported lhs is (2/q) int |f|^q log|f| dmu
        q = 3.0
        f = one_plus(0.2, exp_axis(0.3, 1, 2))
        from gausscone.functionals import lq_norm
        fn = scaled(f, 1.0 / lq_norm(mu_partial, f, q))
        chk = check_lsi(mu_partial, fn, q)
        pts = mu_partial.nodes
        w = mu_partial.rule.weights * mu_partial.normalization
        absf = np.abs(fn.value(pts))
        direct = (2.0 / q) * float(np.sum(w * absf ** q * np.log(absf)))
        assert chk.lhs == pytest.approx(direct, rel=1e-10)
        assert chk.passed

    def test_q_below_two_rejected(self, mu_one_1d):
        with pytest.raises(ParameterError):
            check_lsi(mu_one_1d, constant(1.0, 1), q=1.5)


class TestEuclideanLsi:
    def test_equality_at_quarter_gaussian(self, mu_one_1d):
        for amp in (1.0, 2.0):
            chk = check_euclidean_lsi(mu_one_1d, gaussian_quarter(amp, 1))
            expect = amp ** 2 * EUCLID_EQUALITY_1D
            assert chk.lhs == pytest.approx(expect, rel=1e-10)
            assert chk.rhs == pytest.approx(expect, rel=1e-10)
            assert abs(chk.deficit) <= 1e-7 * (1 + abs(chk.lhs) + abs(chk.rhs))

    def test_equality_partial_weight(self, mu_partial):
        chk = check_euclidean_lsi(mu_partial, gaussian_quarter(1.0, 2))
        assert abs(chk.deficit) <= 1e-7 * (1 + abs(chk.lhs) + abs(chk.rhs))

    def test_gaussians_of_any_width_are_extremal(self, mu_one_1d):
        # the Euclidean LSI is dilation invariant, so the whole family
        # c e^{-beta |x|^2} achieves equality, not just beta = 1/4
        for lam in (1.1, 1.5, 2.0):
            chk = check_euclidean_lsi(mu_one_1d, gaussian(1.0, lam, 1))
            assert abs(chk.deficit) <= 1e-7 * (1 + abs(chk.lhs))

    def test_strict_for_non_extremal(self, mu_one_1d):
        chk = check_euclidean_lsi(mu_one_1d, hermite_witness(0, 1))
        assert chk.passed and chk.deficit > 1e-3

    def test_rescaling_invariance(self, mu_one_1d, mu_partial):
        res = euclidean_lsi_rescaling_invariance(
            mu_one_1d, gaussian(1.0, 1.15, 1), lam=2.0)
        assert res["relative_change"] <= 1e-7
        res = euclidean_lsi_rescaling_invariance(
            mu_partial, gaussian(1.0, 1.2, 2), lam=2.0)
        assert res["relative_change"] <= 1e-7

    def test_tilt_rejected(self, w_tilt):
        with pytest.raises(ContractError):
            check_euclidean_lsi(make_measure(w_tilt), gaussian_quarter(1.0, 1))


class TestLsiEquivalence:
    def test_constant_big_f(self, mu_one_1d):
        res = check_lsi_equivalence(mu_one_1d, constant(1.0, 1))
        assert res["pass"]
        assert res["forward_residual"] <= 1e-12
        assert res["d_coefficient"] == 0.0
        # F = 1 means f = h: the Euclidean equality case, zero entropy on
        # the Gaussian side
        assert res["log_inequality_slack"] == pytest.approx(0.0, abs=1e-12)

    def test_exp_partial(self, mu_partial):
        res = check_lsi_equivalence(mu_partial, exp_axis(0.25, 1, 2))
        assert res["pass"]
        assert res["forward_residual"] <= 1e-7
        assert res["backward_residual"] <= 1e-7

    def test_poly_gauss_big_f(self, mu_partial):
        res = check_lsi_equivalence(
            mu_partial, poly_gauss(7, 2, even_axes=frozenset({0})))
        assert res["pass"]


class TestHup:
    def test_member_zero_deficit(self, mu_partial):
        chk = check_hup(mu_partial, gaussian(1.5, 0.8, 2))
        assert chk.passed
        assert abs(chk.diagnostics["delta"]) <= 1e-10

    def test_witness(self):
        w = make_weight(Monomial((1.0, 0.0)), 2)
        chk = check_hup(make_measure(w), hermite_witness(1, 2))
        assert chk.diagnostics["delta"] == pytest.approx(
            math.sqrt(math.pi) / 4.0, rel=1e-10)
        assert chk.passed


class TestSweeps:
    def test_poincare_extremal_family(self, mu_partial):
        members = [affine([0.0, a], b) for a, b in ((1.0, 0.0), (3.0, 1.0))]
        sweep = sharpness_sweep(
            lambda f: check_poincare(mu_partial, f), "extremal", members=members)
        assert all(abs(r.deficit) <= 1e-9 for r in sweep.rows)

    def test_lsi_extremal_family(self, mu_partial):
        members = [exp_axis(b, 1, 2) for b in (0.25, 0.5, 1.0)]
        sweep = sharpness_sweep(
            lambda f: check_lsi(mu_partial, f), "extremal", members=members)
        assert all(abs(r.deficit) <= 1e-8 * (1 + abs(r.rhs)) for r in sweep.rows)

    def test_too_few_eps(self, mu_partial):
        with pytest.raises(ParameterError):
            sharpness_sweep(lambda f: check_poincare(mu_partial, f),
                            "perturbation", u=constant(1.0, 2), eps_list=[0.1])
