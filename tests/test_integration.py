"""Cross-module consistency checks that the unit suites do not reach.

The six-term L2-stability expression is the most error-prone formula in the
toolkit; on orthant weights the measure barycenter is nonzero, so all six
terms are active.  Its projection structure gives two independent
consistency oracles:

  * the expression equals f - c (int (f - mean) x dmu) . x recentred to mean
    zero, assembled here directly from node values;
  * one Poincare application bounds the L2 level by the gradient level,
    so lhs_l2 <= lhs_gradient always.
"""

import numpy as np
import pytest

from gausscone.fields import exp_axis, gaussian, poly_gauss
from gausscone.inequalities import check_poincare
from gausscone.measures import integrate, make_measure, special_moments
from gausscone.spectral import build_galerkin, spectral_gap
from gausscone.weights import DunklProduct, Monomial, make_weight
from gausscone.cones import Halfspace


@pytest.fixture(scope="module")
def mu_quadrant():
    # both axes constrained: nonzero barycenter on both coordinates
    return make_measure(make_weight(Monomial((1.0, 2.0)), 2), 1.0)


class TestL2StabilityAsymmetric:
    def test_six_terms_match_direct_projection(self, mu_quadrant):
        f = poly_gauss(3, 2, even_axes=frozenset({0, 1}))
        chk = check_poincare(mu_quadrant, f, level="l2_stability")
        pts = mu_quadrant.nodes
        w = mu_quadrant.rule.weights * mu_quadrant.normalization
        vals = f.value(pts)
        c = 1.0  # K_w = 0
        mean = float(np.sum(w * vals))
        v = (w[:, None] * (vals - mean)[:, None] * pts).sum(axis=0)
        g = vals - c * (pts @ v)
        g_centered = g - float(np.sum(w * g))
        lhs_direct = 0.5 * c * float(np.sum(w * g_centered ** 2))
        assert chk.lhs == pytest.approx(lhs_direct, rel=1e-12, abs=1e-14)

    def test_barycenter_terms_are_active(self, mu_quadrant):
        w = mu_quadrant.rule.weights * mu_quadrant.normalization
        mx = (w[:, None] * mu_quadrant.nodes).sum(axis=0)
        assert np.all(mx > 0.1)
        f = poly_gauss(5, 2, even_axes=frozenset({0, 1}))
        chk = check_poincare(mu_quadrant, f, level="l2_stability")
        assert abs(chk.diagnostics["term_mean_barycenter_sq"]) > 1e-6

    def test_l2_level_below_gradient_level(self, mu_quadrant):
        for seed in range(8):
            f = poly_gauss(seed, 2, even_axes=frozenset({0, 1}))
            grad = check_poincare(mu_quadrant, f, level="gradient_stability")
            l2 = check_poincare(mu_quadrant, f, level="l2_stability")
            assert l2.lhs <= grad.lhs + 1e-10
            assert grad.passed and l2.passed


class TestMonteCarloPipeline:
    def test_dunkl_suites_at_mc_tolerance(self):
        # non-axis-aligned Dunkl weight: everything runs on the seeded
        # importance-sampling rule; verdicts need an MC-scale tolerance
        from gausscone.config import parse_config
        from gausscone.report import run
        root = np.sqrt(0.5)
        cfg = parse_config({
            "dim": 2,
            "weight": {"kind": "dunkl", "roots": [[root, root]],
                       "multiplicities": [0.75]},
            "cone": {"kind": "halfspace", "normal": [root, root]},
            "quadrature": {"mc_samples": 2 ** 15},
            "fields": [{"kind": "constant", "c": 2.0},
                       {"kind": "gaussian", "amplitude": 1.0, "lam": 1.2}],
            "suites": ["beckner", "poincare", "lsi"],
            "tolerance": 3e-2,
            "seed": 5,
        })
        rep = run(cfg)
        assert rep.passed

    def test_dunkl_mc_moments(self):
        root = np.sqrt(0.5)
        w = make_weight(DunklProduct(((root, root),), (0.75,)), 2,
                        cone=Halfspace(2, (root, root)))
        mu = make_measure(w, 1.0, mc_samples=2 ** 17, seed=9)
        got = special_moments(mu).second_moment
        assert got == pytest.approx(2 + 1.5, rel=0.05)


class TestThreeDimensional:
    def test_partial_monomial_3d(self):
        w = make_weight(Monomial((1.0, 0.0, 0.0)), 3)
        mu = make_measure(w, 1.0, order=16)
        assert integrate(mu, lambda x: np.ones(len(x))) == pytest.approx(1.0)
        assert special_moments(mu).second_moment == pytest.approx(4.0, rel=1e-10)
        res = spectral_gap(build_galerkin(mu, 6))
        assert res.gap == pytest.approx(1.0, abs=1e-8)
        chk = check_poincare(mu, exp_axis(0.4, 2, 3))
        assert chk.passed

    def test_gaussian_member_distance_3d(self):
        from gausscone.stability import distance_to_family
        mu = make_measure(make_weight(Monomial((1.0, 0.0, 0.0)), 3))
        res = distance_to_family(mu, gaussian(1.5, 1.4, 3))
        assert res.distance <= 1e-6
        assert res.lam == pytest.approx(1.4, rel=1e-5)


class TestFiveDimensional:
    def test_hup_stability_5d_order_8(self):
        # 8^5 = 32768 nodes: the partial monomial weight with a free axis,
        # so the witness, the seeded checks and the oracle all run
        from gausscone.config import parse_config
        from gausscone.report import run
        report = run(parse_config({
            "dim": 5,
            "weight": {"kind": "monomial", "exponents": [1.5, 0, 0, 0, 0]},
            "quadrature": {"order": 8}, "suites": ["hup_stability"]}))
        (suite,) = report.suites
        assert [c["theorem"] for c in suite.checks] == [
            "hup_stability_witness", "hup_stability_seeded",
            "hup_stability_oracle"]
        assert all(c["pass"] and not c["informational"] for c in suite.checks)


class TestRunSettingsReachEveryRule:
    """A run builds every rule, the nu-rules included, from the settings of
    its measure: no rule of another order and no second Monte Carlo draw."""

    def test_order_reaches_nu_rules(self, monkeypatch):
        from gausscone import measures
        from gausscone.config import parse_config
        from gausscone.report import run
        monkeypatch.setattr(measures, "_RULE_CACHE", {})
        run(parse_config({
            "dim": 3,
            "weight": {"kind": "monomial", "exponents": [1.5, 0.0, 0.0]},
            "quadrature": {"order": 16}, "suites": ["hup", "lsi"]}))
        keys = list(measures._RULE_CACHE)
        assert keys and all(key[-1] == "det" and key[2] == 16 for key in keys)

    def test_mc_samples_and_seed_reach_nu_rules(self, monkeypatch):
        from gausscone import measures
        from gausscone.config import parse_config
        from gausscone.report import run
        monkeypatch.setattr(measures, "_RULE_CACHE", {})
        draws = []
        mc_rule = measures._mc_rule

        def counting(weight, lam, samples, seed):
            draws.append((samples, seed))
            return mc_rule(weight, lam, samples, seed)

        monkeypatch.setattr(measures, "_mc_rule", counting)
        run(parse_config({
            "dim": 2,
            "weight": {"kind": "dunkl", "roots": [[0.6, 0.8]],
                       "multiplicities": [0.5]},
            "quadrature": {"mc_samples": 200000},
            "suites": ["gamma_calculus", "beckner", "poincare", "lsi"],
            "seed": 3}))
        keys = [key for key in measures._RULE_CACHE if key[-1] == "mc"]
        assert keys and all(key[2:4] == (200000, 3) for key in keys)
        assert draws == [(200000, 3)]
