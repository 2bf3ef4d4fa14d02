"""1-D rule factories and the tensor/polar/Monte-Carlo rule assembly.

Oracle for the 1-D factors: the Gamma-function closed form of the moments
    int_0^inf t^(a+k) e^(-t^2/2) dt = 2^((a+k-1)/2) Gamma((a+k+1)/2),
which each rule of order m must reproduce for k = 0..2m-1, evaluated in
mpmath by `oracles.gamma_moment`; the half-line recurrence is checked
against the mpmath Chebyshev algorithm of `oracles.halfline_recurrence`.
"""

import math
import time

import numpy as np
import pytest

from gausscone import quad1d
from gausscone.cones import Halfspace
from gausscone.errors import (
    ContractError,
    DecayContractError,
    IntegrationFailureError,
    NotHomogeneousError,
    ParameterError,
    ResourceError,
)
from gausscone.fields import constant, gaussian, poly_gauss, squared
from gausscone.functionals import _nu_moments
from gausscone.measures import (
    RULE_CACHE_ENTRIES,
    _RULE_CACHE,
    _mc_rule,
    build_rule,
    integrate,
    integrate_with_error,
    make_measure,
    nu_integral,
    partition_function,
    special_moments,
)
from gausscone.polys import exponent_table
from gausscone.quad1d import fullline_rule, halfline_recurrence, halfline_rule
from gausscone.weights import DunklProduct, GaussianTilt, Monomial, Radial, make_weight

import oracles
from oracles import gamma_moment

# exponents of the half-line recurrence check: the paper's 1.5, small and
# fractional ones, and the large ones of high monomial powers
ORACLE_EXPONENTS = [0.0, 0.25, 1.5, 3.0, 4.5, 12.0, 30.0, 60.0, 100.0]


def _assert_recurrence_matches(a, order, ref_alpha, ref_beta):
    alpha, beta = halfline_recurrence(a, order)
    # alpha_k > 0 on (0, inf), so both compare relative to the reference
    np.testing.assert_allclose(alpha, ref_alpha[:order], rtol=1e-13, atol=0)
    np.testing.assert_allclose(beta, ref_beta[:order], rtol=1e-13, atol=0)


class TestRules1D:
    # orders 32 and 48 reach nodes whose weights are far below the largest
    # one; the Christoffel weights keep them accurate to relative round-off,
    # which the moments of degree up to 2 order - 1 see
    @pytest.mark.parametrize("a", [0.0, 1.0, 1.5, 2.0, 4.5])
    def test_halfline_moments(self, a):
        for order in (24, 32, 48):
            x, w = halfline_rule(a, order)
            assert np.all(x > 0)
            assert np.all(w > 0)
            for k in range(2 * order):
                exact = gamma_moment(a, k)
                assert np.sum(w * x ** k) == pytest.approx(exact, rel=2e-13)

    @pytest.mark.parametrize("a", [0.0, 2.0])
    def test_fullline_moments(self, a):
        for order in (20, 32, 48):
            x, w = fullline_rule(a, order)
            for k in range(2 * order):
                exact = 0.0 if k % 2 else 2.0 * gamma_moment(a, k)
                # odd moments cancel between mirrored nodes; their round-off
                # floor scales with the neighboring even moment
                assert np.sum(w * x ** k) == pytest.approx(
                    exact, rel=3e-13, abs=1e-12 * gamma_moment(a, k))

    def test_standard_hermite_exact_through_39(self):
        # order 20 on the full line integrates the Gaussian moments through
        # degree 39: oracle = double factorial (2j-1)!! sqrt(2 pi)
        x, w = fullline_rule(0.0, 20)
        moment = np.sqrt(2 * np.pi)
        for k in range(0, 40, 2):
            if k:
                moment *= (k - 1)
            assert np.sum(w * x ** k) == pytest.approx(moment, rel=1e-12)

    def test_order_cap(self):
        with pytest.raises(ResourceError):
            halfline_rule(1.0, 201)

    @pytest.mark.parametrize("a", ORACLE_EXPONENTS)
    def test_halfline_recurrence_matches_oracle(self, a):
        # (alpha_k, beta_k) do not depend on the order they are computed at,
        # so the order-64 reference holds every lower order's as a prefix;
        # the library's discretization does depend on the order
        ref_alpha, ref_beta = oracles.halfline_recurrence(a, 64)
        for order in range(1, 65):
            _assert_recurrence_matches(a, order, ref_alpha, ref_beta)

    def test_halfline_recurrence_order_100(self):
        # the last beta of a high order is the first to go wrong when the
        # discretization interval stops short of the integrands' tails
        _assert_recurrence_matches(1.5, 100,
                                   *oracles.halfline_recurrence(1.5, 100))

    def test_halfline_rule_at_max_order_builds_fast(self):
        # a loose bound: the build takes well under 0.1 s, the former
        # high-precision moment algorithm took seconds
        start = time.perf_counter()
        x, w = halfline_rule(0.75, quad1d.MAX_ORDER)
        assert time.perf_counter() - start < 2.0
        assert np.all(x > 0) and np.all(w >= 0)
        assert np.sum(w) == pytest.approx(gamma_moment(0.75, 0), rel=1e-13)

    def test_gamma_moment_closed_form(self):
        for a in (0.0, 0.25, 1.5, 4.5, 30.0, 100.0, 200.0):
            for k in (0, 1, 2, 7, 40, 95):
                assert quad1d.gamma_moment(a, k) == pytest.approx(
                    gamma_moment(a, k), rel=2e-13)

    def test_gamma_moment_overflow_is_inf(self):
        for a, k in ((400.0, 0), (350.0, 0), (0.0, 400), (1e6, 3)):
            assert gamma_moment(a, k) == math.inf
            assert quad1d.gamma_moment(a, k) == math.inf

    def test_halfline_mass_overflow_raises(self):
        with pytest.raises(IntegrationFailureError,
                           match="normalization is not positive/finite"):
            halfline_recurrence(400.0, 8)


class TestTensorRules:
    def test_monomial_orthant_positive_nodes(self, w_mono_12):
        rule = build_rule(w_mono_12, 1.0, order=16)
        assert rule.kind == "tensor_generalized_hermite"
        assert rule.nodes.shape == (256, 2)
        assert np.all(rule.nodes > 0)

    def test_dunkl_diagonal_root_falls_back_to_mc(self):
        spec = DunklProduct(((np.sqrt(0.5), np.sqrt(0.5)),), (0.75,))
        w = make_weight(spec, 2, cone=Halfspace(2, (np.sqrt(0.5), np.sqrt(0.5))))
        rule = build_rule(w, 1.0, mc_samples=5000, seed=3)
        assert rule.kind == "monte_carlo"
        assert rule.mc.seed == 3 and rule.mc.samples == 5000

    def test_mc_reproducible(self):
        spec = DunklProduct(((np.sqrt(0.5), np.sqrt(0.5)),), (0.75,))
        w = make_weight(spec, 2, cone=Halfspace(2, (np.sqrt(0.5), np.sqrt(0.5))))
        r1 = build_rule(w, 1.0, mc_samples=4096, seed=11)
        r2 = build_rule(w, 1.0, mc_samples=4096, seed=11)
        np.testing.assert_array_equal(r1.nodes, r2.nodes)
        np.testing.assert_array_equal(r1.weights, r2.weights)


class TestNormalization:
    def test_gaussian_1d(self, w_one_1d):
        assert make_measure(w_one_1d, 1.0).normalization == pytest.approx(
            1.0 / np.sqrt(2 * np.pi), rel=1e-12)

    def test_monomial_12_closed_form(self, w_mono_12):
        # 1-D Gamma integrals: int_0^inf t e^{-t^2/2} = 1,
        # int_0^inf t^2 e^{-t^2/2} = sqrt(pi/2); adaptive-quadrature
        # cross-check froze 1.2533141373155003
        z = build_rule(w_mono_12, 1.0).mass
        assert z == pytest.approx(1.2533141373155003, rel=1e-10)

    def test_gaussian_tilt_closed_form(self):
        for s in (-0.5, 0.0, 1.7):
            for n in (1, 2, 3):
                w = make_weight(GaussianTilt(s), n)
                assert build_rule(w, 1.0).mass == pytest.approx(
                    (2 * np.pi / (1 + s)) ** (n / 2), rel=1e-12)

    def test_tilt_divergent(self):
        w = make_weight(GaussianTilt(-0.5), 1)
        with pytest.raises(IntegrationFailureError):
            build_rule(w, 2.0)  # 1/lambda^2 + s <= 0

    def test_partial_tilt_closed_form(self):
        # e^{-s x_1^2/2} on R^3 independent of x_2, x_3: the tensor rule must
        # fold the tilt on axis 1 only
        from gausscone.weights import PartialProduct
        w = make_weight(PartialProduct(GaussianTilt(0.8), (0,)), 3)
        z = build_rule(w, 1.0).mass
        assert z == pytest.approx(np.sqrt(2 * np.pi / 1.8) * 2 * np.pi, rel=1e-12)
        mu = make_measure(w, 1.0)
        moments = special_moments(mu).axis_moments
        assert moments[0] == pytest.approx(1.0 / 1.8, rel=1e-12)
        assert moments[1] == pytest.approx(1.0, rel=1e-12)

    def test_rescaling_covariance(self):
        # Z(lambda) against the Gamma-moment closed form at lambda: per axis
        # lambda^(a+1) M_a (doubled on full axes), and for the radial weight
        # |x| on the plane 2 pi lambda^3 M_2, with M_a = gamma_moment(a, 0)
        def monomial_z(exps, lam):
            z = 1.0
            for a in exps:
                m = lam ** (a + 1.0) * gamma_moment(a, 0)
                z *= 2.0 * m if a == 0.0 else m
            return z

        cases = [(Monomial((1.0, 2.0)), lambda lam: monomial_z((1.0, 2.0), lam)),
                 (Monomial((1.5, 0.0)), lambda lam: monomial_z((1.5, 0.0), lam)),
                 (Radial(1.0), lambda lam: 2 * np.pi * lam ** 3 * gamma_moment(2.0, 0))]
        for spec, closed_form in cases:
            w = make_weight(spec, 2, certify=False)
            for lam in (0.5, 1.3, 2.0):
                assert build_rule(w, lam).mass == pytest.approx(
                    closed_form(lam), rel=1e-10)
                # the partition function Z(w, 1) of a measure does not
                # depend on the measure's own scale
                assert partition_function(make_measure(w, lam)) == pytest.approx(
                    closed_form(1.0), rel=1e-10)


class TestIntegrate:
    def test_probability_one(self, mu_partial, mu_one_2d):
        for mu in (mu_partial, mu_one_2d):
            assert integrate(mu, constant(1.0, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_second_moment(self, mu_one_1d):
        assert integrate(mu_one_1d, lambda x: x[:, 0] ** 2) == pytest.approx(1.0)

    def test_moment_identity_n_plus_alpha(self):
        # int |x|^2 dmu_w = n + alpha for every homogeneous weight
        cases = [(Monomial((0.0, 0.0)), 2), (Monomial((1.0, 0.0)), 2),
                 (Monomial((1.0, 2.0)), 2), (Radial(1.0), 2)]
        for spec, dim in cases:
            w = make_weight(spec, dim, certify=False)
            mu = make_measure(w, 1.0)
            got = special_moments(mu).second_moment
            assert got == pytest.approx(dim + w.degree, rel=1e-10)

    def test_partial_half_identity(self, w_partial):
        # w independent of x_n at scale lambda^2 = 1/2:
        # 2 int x_n^2 e^{-|x|^2} w = int e^{-|x|^2} w
        mu = make_measure(w_partial, 1.0 / np.sqrt(2.0))
        assert special_moments(mu).axis_moments[1] == pytest.approx(0.5, rel=1e-10)

    def test_weighted_second_moment_identity(self, w_partial):
        # w2 = x_n^2 w has degree alpha + 2: second moment (n+alpha+2)/2 at
        # the same scale
        w2 = make_weight(Monomial((1.5, 2.0)), 2)
        mu = make_measure(w2, 1.0 / np.sqrt(2.0))
        expected = (2 + 1.5 + 2.0) / 2.0
        assert special_moments(mu).second_moment == pytest.approx(expected, rel=1e-10)

    def test_order_refinement(self, w_mono_12):
        mu32 = make_measure(w_mono_12, 1.0, order=32)
        mu64 = make_measure(w_mono_12, 1.0, order=64)
        f = poly_gauss(5, 2)
        a, b = integrate(mu32, f), integrate(mu64, f)
        assert abs(a - b) <= 1e-10 * (1.0 + abs(b))

    def test_mc_standard_error(self):
        spec = DunklProduct(((np.sqrt(0.5), np.sqrt(0.5)),), (0.75,))
        w = make_weight(spec, 2, cone=Halfspace(2, (np.sqrt(0.5), np.sqrt(0.5))))
        mu = make_measure(w, 1.0, mc_samples=2 ** 14, seed=5)
        val, se = integrate_with_error(mu, lambda x: np.sum(x ** 2, axis=1))
        assert se > 0
        # degree alpha = 1.5, so the exact second moment is n + alpha = 3.5
        assert abs(val - 3.5) <= 5 * se

    def test_tensor_vs_mc_agreement(self, w_mono_12):
        # |MC - tensor| <= 4 SE in >= 95% of seeded trials
        mu_t = make_measure(w_mono_12, 1.0)
        f = squared(poly_gauss(9, 2))
        exact = integrate(mu_t, f)
        hits = 0
        trials = 40
        for seed in range(trials):
            mu_mc = make_measure(w_mono_12, 1.0, mc_samples=2 ** 13, seed=seed)
            val, se = integrate_with_error(mu_mc, f)
            if abs(val - exact) <= 4.0 * se:
                hits += 1
        assert hits >= 0.95 * trials

    def test_decay_contract(self, mu_one_2d):
        # nu-integration refuses a field without a Gaussian decay envelope
        with pytest.raises(ContractError):
            _nu_moments(mu_one_2d, constant(1.0, 2))
        with pytest.raises(DecayContractError):
            nu_integral(mu_one_2d, constant(1.0, 2).value, 0.0)
        # f = e^{-|x|^2/2}: int f^2 dx over R^2 = pi
        moments = _nu_moments(mu_one_2d, gaussian(1.0, 1.0, 2))
        assert moments.norm_sq == pytest.approx(np.pi, rel=1e-12)

    def test_nu_integral_uses_order(self, w_one_1d):
        # the measure's settings pick the rule: an order-4 rule is exact only
        # through degree 7, so x^12 tells which rule ran; rate 1/2 puts the
        # rule at scale 1, where it is the bare Gauss-Hermite rule, whatever
        # the scale of the measure
        t, q = fullline_rule(0.0, 4)
        expected = float(np.sum(q * t ** 12))
        assert abs(expected - 2.0 * gamma_moment(0.0, 12)) > 0.1 * expected
        mu = make_measure(w_one_1d, 2.0, order=4)
        val = nu_integral(mu, lambda x: x[:, 0] ** 12, 0.5)
        assert val == pytest.approx(expected, rel=1e-12)
        # on a Monte Carlo measure that rule is the lambda = 1 draw of the
        # measure's own sample count and seed, and another seed differs
        w = make_weight(DunklProduct(((0.6, 0.8),), (0.5,)), 2,
                        cone=Halfspace(2, (0.6, 0.8)), certify=False)

        mu = make_measure(w, 1.5, mc_samples=2 ** 10, seed=3)
        vals = [nu_integral(mu, lambda x: x[:, 0] ** 2, 0.5)]
        for seed in (3, 4):
            rule = _mc_rule(w, 1.0, 2 ** 10, seed)
            vals.append(float(np.sum(rule.weights * rule.nodes[:, 0] ** 2)))
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[0] != pytest.approx(vals[2], rel=1e-6)

    def test_nu_integral_matches_closed_form(self, mu_one_2d):
        # int e^{-|x|^2} dx over R^2 = pi: the slow factor is 1
        val = nu_integral(mu_one_2d, lambda x: np.ones(len(x)), 1.0)
        assert val == pytest.approx(np.pi, rel=1e-12)

    @pytest.mark.parametrize("spec, cone, mc_samples, kind", [
        (Monomial((1.0, 2.0)), None, None, "tensor_generalized_hermite"),
        (Radial(1.0), None, None, "polar"),
        (DunklProduct(((0.6, 0.8),), (0.5,)), Halfspace(2, (0.6, 0.8)),
         2 ** 14, "monte_carlo"),
    ], ids=["tensor", "polar", "monte_carlo"])
    def test_nu_integral_vector_matches_scalar_calls(self, spec, cone,
                                                     mc_samples, kind):
        w = make_weight(spec, 2, cone=cone, certify=False)
        rate = 0.8
        assert build_rule(w, 1.0 / np.sqrt(2.0 * rate),
                          mc_samples=mc_samples).kind == kind

        def components(x):
            # the slow factors of p(x) e^{-rate |x|^2}
            r2 = np.sum(x ** 2, axis=1)
            return [np.ones(len(x)), x[:, 0] ** 2, 1.0 + x[:, 1] ** 2, r2 ** 2]

        mu = make_measure(w, mc_samples=mc_samples)
        vec = nu_integral(mu, lambda x: np.stack(components(x), axis=1)
                          .reshape(len(x), 2, 2), rate)
        assert vec.shape == (2, 2)
        scalars = [nu_integral(mu, lambda x, k=k: components(x)[k], rate)
                   for k in range(4)]
        np.testing.assert_allclose(vec.ravel(), scalars, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("spec, cone, mc_samples", [
        (Monomial((1.0, 2.0)), None, None),
        (Radial(1.0), None, None),
        (DunklProduct(((0.6, 0.8),), (0.5,)), Halfspace(2, (0.6, 0.8)), 200000),
    ], ids=["tensor", "polar", "monte_carlo"])
    def test_moments_are_rule_sums(self, spec, cone, mc_samples):
        # the chunked table sums q t^g over the lambda = 1 rule, and a lower
        # degree is the prefix of the cached table
        mu = make_measure(make_weight(spec, 2, cone=cone, certify=False),
                          mc_samples=mc_samples)
        rule = mu.rule_at(1.0)
        expo = exponent_table(2, 6)
        direct = np.array([np.sum(rule.weights * np.prod(rule.nodes ** e, axis=1))
                           for e in expo])
        table = mu.moments(6)
        np.testing.assert_allclose(table, direct, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(direct)))
        assert np.array_equal(mu.moments(4), table[:len(exponent_table(2, 4))])

    def test_radial_polar_rule(self):
        w = make_weight(Radial(1.0), 2, certify=False)
        rule = build_rule(w, 1.0, order=24)
        assert rule.kind == "polar"
        # oracle: int |x| e^{-|x|^2/2} dx = 2 pi int r^2 e^{-r^2/2} dr
        z = np.sum(rule.weights)
        assert z == pytest.approx(2 * np.pi * gamma_moment(2.0, 0), rel=1e-12)
        # non-radial polynomial integrand, odd parts vanish
        val = np.sum(rule.weights * (rule.nodes[:, 0] ** 2
                                     + rule.nodes[:, 0] * rule.nodes[:, 1]))
        exact = 0.5 * 2 * np.pi * gamma_moment(2.0, 2)
        assert val == pytest.approx(exact, rel=1e-12)

    def test_bad_lambda(self, w_one_1d):
        with pytest.raises(ParameterError):
            build_rule(w_one_1d, 0.0)


# one homogeneous weight (cached at lambda = 1 and rescaled) and one that is
# not (cached per exact lambda)
CACHE_CASES = [(Monomial((1.5, 0.0)), 2), (GaussianTilt(0.3), 1)]


class TestRuleCache:
    @pytest.mark.parametrize("spec, dim", CACHE_CASES)
    def test_scale_is_exact(self, spec, dim):
        w = make_weight(spec, dim)
        lam = 1.3
        lam_next = float(np.nextafter(lam, 2.0))
        assert build_rule(w, lam).scale == lam
        assert build_rule(w, lam_next).scale == lam_next

    @pytest.mark.parametrize("spec, dim", CACHE_CASES)
    def test_cache_bounded(self, spec, dim):
        w = make_weight(spec, dim)
        for lam in np.linspace(0.5, 2.0, 1000):
            build_rule(w, float(lam), order=8)
        assert len(_RULE_CACHE) <= RULE_CACHE_ENTRIES

    def test_rescaled_mc_rule_matches_direct(self):
        spec = DunklProduct(((np.sqrt(0.5), np.sqrt(0.5)),), (0.75,))
        w = make_weight(spec, 2, cone=Halfspace(2, (np.sqrt(0.5), np.sqrt(0.5))))
        for lam in (0.6, 1.7):
            got = build_rule(w, lam, mc_samples=4096, seed=2)
            ref = _mc_rule(w, lam, 4096, 2)
            assert got.scale == lam
            np.testing.assert_allclose(got.nodes, ref.nodes, rtol=1e-13)
            # relative to the largest weight: near the root's zero set the
            # cancellation in <beta, x> amplifies the round-off of the tiny
            # weights there, in both rules alike
            np.testing.assert_allclose(got.weights, ref.weights, rtol=1e-13,
                                       atol=1e-13 * ref.weights.max())
            assert got.mass == pytest.approx(ref.mass, rel=1e-13)
            assert got.mc.proposal_sigma == pytest.approx(
                ref.mc.proposal_sigma, rel=1e-13)
