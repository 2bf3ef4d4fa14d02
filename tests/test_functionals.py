"""Norms, variance, entropy, Dirichlet energy, the optimal scale and the
HUP deficit.

Frozen derived values and their oracles:
  * Var(x^2) under the standard Gaussian = E x^4 - (E x^2)^2 = 3 - 1 = 2.
  * Ent(e^{2bx}) closed form 2 b^2 e^{2b^2}: at b = 0.5 equals
    0.8243606353500641 (mpmath: 0.5*exp(0.5)).
  * energy closed form b^2 e^{2b^2}: at b = 0.5 equals 0.41218031767503205.
  * witness deficit sqrt(pi)/4 = 0.44311346272637897 from the 1-D integrals
    int_0^inf x e^{-x^2} dx = 1/2 and int x^2 e^{-x^2} dx = sqrt(pi)/2.
"""

import dataclasses

import numpy as np
import pytest

from gausscone.errors import (
    DegenerateInputError,
    DomainError,
    NotHomogeneousError,
    ParameterError,
)
from gausscone.fields import (
    PolyGauss,
    affine,
    constant,
    exp_axis,
    gaussian,
    gaussian_quarter,
    hermite_witness,
    mass_dilated,
    poly_gauss,
    product,
    scaled,
    squared,
)
from gausscone.functionals import (
    _nu_moments,
    dirichlet_energy,
    entropy,
    hup_deficit,
    lq_norm,
    optimal_scale,
    variance,
)
from gausscone.inequalities import TOLERANCE_SCALE, check_hup, limit
from gausscone.measures import make_measure
from gausscone.suites import record_of
from gausscone.weights import Monomial, Radial, make_weight

from oracles import nu_fold

ENT_HALF = 0.8243606353500641
ENERGY_HALF = 0.41218031767503205
WITNESS_DELTA = 0.44311346272637897


class TestLqNorm:
    def test_constant(self, mu_partial):
        for q in (1.0, 2.0, 3.5):
            assert lq_norm(mu_partial, constant(1.0, 2), q) == pytest.approx(1.0)

    def test_gaussian_coordinate(self, mu_one_1d):
        assert lq_norm(mu_one_1d, affine([1.0], 0.0), 2.0) == pytest.approx(1.0)

    def test_jensen_monotonicity(self, mu_one_2d):
        for f in (poly_gauss(0, 2), exp_axis(0.4, 0, 2), hermite_witness(1, 2)):
            assert lq_norm(mu_one_2d, f, 1.0) <= lq_norm(mu_one_2d, f, 2.0) + 1e-12

    def test_q_below_one(self, mu_one_1d):
        with pytest.raises(ParameterError):
            lq_norm(mu_one_1d, constant(1.0, 1), 0.5)


class TestVariance:
    def test_constant_zero(self, mu_partial):
        assert variance(mu_partial, constant(4.2, 2)) == 0.0

    @pytest.mark.parametrize("order", [12, 24, 40])
    def test_constant_zero_weights_off_one(self, w_partial, order):
        # the normalized weights of these rules sum to 1 - O(1e-16), which
        # E[f^2] - E[f]^2 turns into a variance of 4e-15 to 1e-14
        mu = make_measure(w_partial, 1.0, order=order)
        assert variance(mu, constant(4.2, 2)) == 0.0

    def test_partial_affine_sum_of_squares(self, mu_partial):
        # free-axis affine: Var = sum a_k^2 over free axes
        f = affine([0.0, 3.0], 1.0)
        assert variance(mu_partial, f) == pytest.approx(9.0, rel=1e-12)

    def test_gaussian_x_squared(self, mu_one_1d):
        f = squared(affine([1.0], 0.0))
        assert variance(mu_one_1d, f) == pytest.approx(2.0, rel=1e-12)


class TestEntropy:
    def test_constant_zero(self, mu_partial):
        assert entropy(mu_partial, constant(3.0, 2)) == pytest.approx(0.0, abs=1e-14)

    def test_exp_axis_closed_form(self, mu_partial):
        f2 = squared(exp_axis(0.5, 1, 2))
        assert entropy(mu_partial, f2) == pytest.approx(ENT_HALF, rel=1e-10)

    def test_amplitude_scaling(self, mu_partial):
        # Ent(A^2 f^2) = A^2 Ent(f^2), A = 3
        f2 = squared(exp_axis(0.5, 1, 2))
        a2 = 9.0
        assert entropy(mu_partial, scaled(f2, a2)) == pytest.approx(
            a2 * entropy(mu_partial, f2), rel=1e-9)

    def test_nonnegative_on_probability_measures(self, mu_one_2d):
        for f in (poly_gauss(2, 2), exp_axis(0.3, 0, 2), gaussian(1.2, 1.0, 2)):
            assert entropy(mu_one_2d, squared(f)) >= -1e-10

    def test_negative_integrand_rejected(self, mu_one_1d):
        with pytest.raises(DomainError):
            entropy(mu_one_1d, affine([1.0], 0.0))


class TestDirichletEnergy:
    def test_constant_zero(self, mu_partial):
        assert dirichlet_energy(mu_partial, constant(1.0, 2), 2.0) == 0.0

    def test_exp_axis_closed_form(self, mu_partial):
        f = exp_axis(0.5, 1, 2)
        assert dirichlet_energy(mu_partial, f, 2.0) == pytest.approx(
            ENERGY_HALF, rel=1e-10)

    def test_affine(self, mu_one_2d):
        f = affine([1.0, 2.0], 0.7)
        assert dirichlet_energy(mu_one_2d, f, 2.0) == pytest.approx(5.0, rel=1e-12)


class TestOptimalScale:
    def test_gaussian_family_member(self, mu_partial):
        for lam0 in (0.5, 1.0, 2.0):
            f = gaussian(1.3, lam0, 2)
            assert optimal_scale(mu_partial, f) == pytest.approx(lam0, rel=1e-10)

    def test_witness_scale_one(self):
        w = make_weight(Monomial((1.0, 0.0)), 2)
        assert optimal_scale(make_measure(w), hermite_witness(1, 2)) \
            == pytest.approx(1.0, rel=1e-8)

    def test_dilation_covariance(self, mu_partial):
        f = poly_gauss(4, 2, even_axes=frozenset({0}))
        s = 2.0
        dilated = mass_dilated(f, 1.0 / s, 0.0)
        assert optimal_scale(mu_partial, dilated) == pytest.approx(
            s * optimal_scale(mu_partial, f), rel=1e-10)

    def test_zero_field(self, mu_partial):
        with pytest.raises(DegenerateInputError):
            optimal_scale(mu_partial, scaled(gaussian(1.0, 1.0, 2), 0.0))


def _gradient_off_by_one_percent(f, path, patch):
    """f with its gradient 1% too large where `_nu_moments` reads it, which
    is `fields.slow_jet`: on the "jet_only" path a copy of f without its
    PolyGauss, whose slow jet is its jet over the envelope; on the
    "structured" path f itself, with PolyGauss._slow_grad patched (`patch`
    a monkeypatch) to scale the slow gradient of every structured field."""
    if path == "jet_only":
        def bad_jet(x, order):
            value, *derivs = f.jet(x, order)
            if derivs:
                derivs[0] = 1.01 * derivs[0]
            return (value, *derivs)

        return dataclasses.replace(f, jet=bad_jet, poly_gauss=None)
    slow_grad = PolyGauss._slow_grad

    def bad_slow_grad(self, x, d):
        w, grad = slow_grad(self, x, d)
        return w, 1.01 * grad

    patch.setattr(PolyGauss, "_slow_grad", bad_slow_grad)
    return f


class TestHupDeficit:
    def test_family_member_zero(self, mu_partial):
        res = hup_deficit(mu_partial, gaussian(2.0, 1.7, 2))
        assert abs(res.delta) < 1e-10
        assert res.identity_residual < 1e-10

    def test_witness_value(self):
        w = make_weight(Monomial((1.0, 0.0)), 2)
        res = hup_deficit(make_measure(w), hermite_witness(1, 2))
        assert res.delta == pytest.approx(WITNESS_DELTA, rel=1e-10)
        assert res.lambda_star == pytest.approx(1.0, rel=1e-8)
        assert res.identity_residual < 1e-10

    def test_nonnegative_and_identity_seeded(self):
        weights = [make_weight(Monomial((0.0, 0.0)), 2),
                   make_weight(Monomial((1.0, 0.0)), 2),
                   make_weight(Monomial((1.0, 2.0)), 2),
                   make_weight(Radial(1.0), 2, certify=False)]
        for w in weights:
            for seed in range(8):
                f = poly_gauss(seed, 2)
                res = hup_deficit(make_measure(w), f)
                assert res.delta >= -1e-9
                assert res.identity_residual <= 1e-8 * (1.0 + abs(res.delta))

    def test_scale_invariance_bookkeeping(self, mu_partial):
        # delta(f(./s)) = s^{n+alpha} delta(f): both integrals pick up
        # s^{n+alpha} while sqrt(energy)*sqrt(moment) picks s^{n+alpha} too
        f = poly_gauss(3, 2, even_axes=frozenset({0}))
        s = 2.0
        n_alpha = 2 + 1.5
        d1 = hup_deficit(mu_partial, f).delta
        d2 = hup_deficit(mu_partial, mass_dilated(f, 1.0 / s, 0.0)).delta
        assert d2 == pytest.approx(s ** n_alpha * d1, rel=1e-7)

    def test_non_homogeneous_rejected(self, w_tilt):
        with pytest.raises(NotHomogeneousError):
            hup_deficit(make_measure(w_tilt), gaussian(1.0, 1.0, 1))

    def test_one_nu_integral_call(self, mu_partial, nu_calls):
        hup_deficit(mu_partial, poly_gauss(3, 2, even_axes=frozenset({0})))
        assert len(nu_calls) == 1

    def test_identity_detects_wrong_gradient(self, mu_partial, monkeypatch):
        # the residual checks int f x.grad f w = -(n+alpha)/2 int f^2 w, so a
        # gradient off by 1% where the moments read it must fail the gate
        # of hup_identity that suite_hup applies, on either slow-jet path
        f = poly_gauss(3, 2, even_axes=frozenset({0}))
        good = hup_deficit(mu_partial, f)
        assert good.identity_residual <= 1e-8 * (1.0 + abs(good.delta))
        for path in ("jet_only", "structured"):
            with monkeypatch.context() as patch:
                bad = _gradient_off_by_one_percent(f, path, patch)
                res = hup_deficit(mu_partial, bad)
                assert res.identity_residual / (1.0 + abs(res.delta)) \
                    > limit("hup_identity"), path
                assert not check_hup(mu_partial, bad).passed, path

    def test_run_tolerance_keeps_identity_verdict(self, mu_partial,
                                                  monkeypatch):
        # suite_hup re-judges the deficit at the run tolerance; a failed
        # identity must fail the record at every tolerance, however loose
        f = poly_gauss(3, 2, even_axes=frozenset({0}))
        for path in ("jet_only", "structured"):
            with monkeypatch.context() as patch:
                chk = check_hup(mu_partial,
                                _gradient_off_by_one_percent(f, path, patch))
            assert not chk.diagnostics["identity_ok"], path
            for tol_scale in (TOLERANCE_SCALE, 1e-2, 10.0):
                rec = record_of(chk, f.name, tol_scale)
                assert chk.deficit >= -rec["tolerance"]
                assert rec["pass"] is False
        assert record_of(check_hup(mu_partial, f), f.name, 10.0)["pass"] is True


class TestNuMoments:
    @pytest.mark.parametrize("mc_samples", [None, 20_000], ids=["tensor", "mc"])
    def test_entropy_row_only_when_asked(self, w_partial, mc_samples):
        # the HUP passes form no f^2 log f^2; every row of the stacked sum
        # is summed on its own, so the other moments keep their bits
        mu = make_measure(w_partial, 1.0, order=24, mc_samples=mc_samples,
                          seed=1)
        for f in (poly_gauss(3, 2, even_axes=frozenset({0})),
                  gaussian(1.3, 1.2, 2)):
            plain = _nu_moments(mu, f)
            full = _nu_moments(mu, f, entropy=True)
            assert plain.sq_log_sq is None and full.sq_log_sq is not None
            assert plain == full._replace(sq_log_sq=None)

    def test_hup_takes_no_logarithm(self, mu_partial, monkeypatch):
        logs = []
        log = np.log
        monkeypatch.setattr(np, "log", lambda x, *a, **k: logs.append(1)
                            or log(x, *a, **k))
        f = poly_gauss(3, 2, even_axes=frozenset({0}))
        hup_deficit(mu_partial, f)
        optimal_scale(mu_partial, f)
        assert logs == []

    @pytest.mark.parametrize("spec, mc_samples, kind", [
        (Monomial((1.5, 0.0)), None, "tensor_generalized_hermite"),
        (Radial(1.0), None, "polar"),
        (Monomial((1.5, 0.0)), 3 * 1024 + 5, "monte_carlo"),
    ], ids=["tensor", "polar", "monte_carlo"])
    def test_moments_match_full_integrand_oracle(self, spec, mc_samples, kind):
        # every moment of the slow-factor sum equals its full integrand,
        # Gaussian and all, folded by oracles.nu_fold, to 1e-13 of the sum
        # of its absolute values; the fields are the library fields with a
        # Gaussian envelope (nu-moments refuse the others) with their
        # structure keepers, and a product, which has no PolyGauss
        mu = make_measure(make_weight(spec, 2, certify=False), 1.0, order=10,
                          mc_samples=mc_samples, seed=3)
        assert mu.rule.kind == kind
        base = [hermite_witness(0, 2), gaussian(1.3, 1.2, 2),
                gaussian_quarter(0.8, 2), poly_gauss(0, 2)]
        library = [keep(f) for f in base for keep in (
            lambda f: f, lambda f: scaled(f, -2.5),
            lambda f: mass_dilated(f, 0.6, f.dim + 1.5))]
        library.append(product(exp_axis(0.5, 1, 2), gaussian(1.3, 1.2, 2)))
        assert library[-1].poly_gauss is None

        for f in library:
            def integrand(pts):
                vals, grad = f.jet(pts, 1)
                sq = vals ** 2
                with np.errstate(divide="ignore", invalid="ignore"):
                    sq_log_sq = np.where(sq > 0, sq * np.log(sq), 0.0)
                rows = np.stack([sq, np.sum(grad ** 2, axis=1),
                                 sq * np.sum(pts ** 2, axis=1),
                                 vals * np.sum(pts * grad, axis=1), sq_log_sq])
                return np.vstack([rows, np.abs(rows)]).T

            rate = 2.0 * f.decay.rate
            sums = nu_fold(mu.rule_at(1.0 / np.sqrt(2.0 * rate)), integrand, rate)
            got = np.array(_nu_moments(mu, f, entropy=True))
            assert np.all(np.abs(got - sums[:5]) <= 1e-13 * sums[5:]), f.name
