"""Measure plumbing: descriptors, error paths, cones and serializer edges."""

import dataclasses
import json

import numpy as np
import pytest

from gausscone.cones import Cone, Halfspace, Orthant
from gausscone.errors import EvaluationError, UnsupportedRuleError
from gausscone.fields import constant, exp_axis, gaussian, poly_gauss
from gausscone.inequalities import (
    check_beckner,
    check_lsi,
    check_poincare,
    check_scale_poincare,
)
from gausscone.measures import (
    _mc_rule,
    build_rule,
    integrate,
    integrate_with_error,
    make_measure,
    nu_integral,
)
from gausscone.report import _clean, _emit_json
from gausscone.weights import (
    CustomLogWeight,
    DunklProduct,
    Monomial,
    Radial,
    make_weight,
)


class TestMeasurePlumbing:
    def test_non_finite_integrand(self, mu_one_1d):
        with pytest.raises(EvaluationError), np.errstate(divide="ignore"):
            integrate(mu_one_1d, lambda x: 1.0 / (x[:, 0] - x[:, 0]))

    @pytest.mark.parametrize("mc_samples", [None, 2 ** 12], ids=["tensor", "mc"])
    def test_vector_integrand_matches_components(self, w_partial, mc_samples):
        # (N, 2, 3) values give (2, 3) integrals, each with the value and
        # standard error of that component integrated alone, bit for bit
        mu = make_measure(w_partial, 1.0, order=12, mc_samples=mc_samples,
                          seed=3)
        f = poly_gauss(4, 2, even_axes=frozenset({0}))
        vals = f.value(mu.nodes)
        stack = np.stack([np.stack([vals, vals ** 2, mu.nodes[:, 0]], axis=1),
                          np.stack([mu.nodes[:, 1], vals * mu.nodes[:, 1],
                                    np.ones(len(vals))], axis=1)], axis=1)
        est, se = integrate_with_error(mu, stack)
        assert est.shape == se.shape == (2, 3)
        for i in range(2):
            for k in range(3):
                assert (est[i, k], se[i, k]) == integrate_with_error(
                    mu, stack[:, i, k])
        assert np.all(se > 0) if mc_samples else np.all(se == 0)
        assert integrate(mu, f) == integrate(mu, vals)

    def test_non_finite_component(self, mu_one_1d):
        vals = np.ones((len(mu_one_1d.nodes), 2))
        vals[3, 1] = np.inf
        with pytest.raises(EvaluationError):
            integrate(mu_one_1d, vals)

    @pytest.mark.parametrize("check", [
        lambda mu, f: check_beckner(mu, f, 1.0, 2.0),
        lambda mu, f: check_poincare(mu, f, 2.0, "basic"),
        lambda mu, f: check_poincare(mu, f, 2.0, "gradient_stability"),
        lambda mu, f: check_poincare(mu, f, 2.0, "l2_stability"),
        lambda mu, f: check_scale_poincare(mu, f, 1.0, "basic"),
        lambda mu, f: check_scale_poincare(mu, f, 1.0, "improved"),
        lambda mu, f: check_lsi(mu, f, 2.0),
    ], ids=["beckner", "poincare_basic", "gradient_stability", "l2_stability",
            "scale_basic", "scale_improved", "lsi"])
    def test_mu_checks_refuse_non_finite_fields(self, mu_one_1d, check):
        # e^{800 x} overflows at the outer Gauss-Hermite nodes
        with pytest.raises(EvaluationError), np.errstate(over="ignore",
                                                         invalid="ignore"):
            check(mu_one_1d, exp_axis(800.0, 0, 1))

    def test_callable_and_field_agree(self, mu_one_2d):
        f = gaussian(1.0, 1.3, 2)
        a = integrate(mu_one_2d, f)
        b = integrate(mu_one_2d, f.value)
        assert a == b

    def test_custom_weight_mc_fallback(self):
        # a custom non-tensor weight on the full plane goes Monte Carlo with
        # the generic folded-Gaussian proposal
        spec = CustomLogWeight(
            lambda p: -0.1 * np.sum(p ** 2, axis=1) ** 2,
            lambda p: -0.4 * p * np.sum(p ** 2, axis=1)[:, None],
            lambda p: -(0.4 * np.sum(p ** 2, axis=1)[:, None, None]
                        * np.eye(p.shape[1])[None]
                        + 0.8 * p[:, :, None] * p[:, None, :]),
            name="soft-quartic")
        w = make_weight(spec, 2, certify=False)
        rule = build_rule(w, 1.0, mc_samples=2 ** 13, seed=1)
        assert rule.kind == "monte_carlo"
        mu = make_measure(w, 1.0, mc_samples=2 ** 13, seed=1)
        assert integrate(mu, constant(1.0, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_custom_weight_rule_not_stale(self):
        # each weight is dropped before the next is made, so a new log_value
        # can land at the address of a freed one; its rule must still be its own
        def soft_quartic(c):
            return CustomLogWeight(
                lambda p: -c * np.sum(p ** 2, axis=1) ** 2,
                lambda p: -4.0 * c * p * np.sum(p ** 2, axis=1)[:, None],
                lambda p: np.zeros((len(p), p.shape[1], p.shape[1])),
                name="soft-quartic")

        for k in range(20):
            w = make_weight(soft_quartic(0.05 * (k + 1)), 2, certify=False)
            got = build_rule(w, 1.0, mc_samples=256, seed=0).weights
            np.testing.assert_array_equal(got, _mc_rule(w, 1.0, 256, 0).weights)
            del w, got

    def test_mc_axis_aligned_product_cone_supported(self):
        # a half-line times a line: its normal is an axis vector, so the
        # cone folds per axis like an orthant
        cone = Cone(2, ((1.0, 0.0),))
        w = make_weight(Monomial((1.0, 0.0)), 2, cone=cone)
        rule = build_rule(w, 1.0, mc_samples=2 ** 12, seed=0)
        assert np.all(rule.nodes[rule.weights > 0, 0] > 0)

    def test_mc_unsupported_cone(self):
        # two tilted facets have no folded proposal (one folds by point
        # reflection)
        cone = Cone(3, ((0.6, 0.8, 0.0), (-0.8, 0.6, 0.0)))
        spec = CustomLogWeight(
            lambda p: np.zeros(len(p)),
            lambda p: np.zeros_like(p),
            lambda p: np.zeros((len(p), p.shape[1], p.shape[1])),
            name="flat")
        w = make_weight(spec, 3, cone=cone, certify=False)
        with pytest.raises(UnsupportedRuleError):
            build_rule(w, 1.0, mc_samples=128, seed=0)

    def test_nu_integral_needs_positive_rate(self, mu_one_2d):
        from gausscone.errors import DecayContractError
        with pytest.raises(DecayContractError):
            nu_integral(mu_one_2d, lambda x: np.ones(len(x)), 0.0)


def _axis_first(arr):
    """Whether an (N, ...) array is the transposed view of a C-contiguous
    buffer with the node axis last."""
    return np.moveaxis(arr, 0, -1).flags.c_contiguous


# one rule of each family: tensor, polar and Monte Carlo
RULE_FAMILIES = {
    "tensor": (lambda: make_weight(Monomial((1.5, 0.0)), 2), {"order": 8}),
    "polar": (lambda: make_weight(Radial(1.0), 2), {"order": 8}),
    "mc": (lambda: make_weight(DunklProduct(((0.6, 0.8),), (0.5,)), 2),
           {"mc_samples": 512, "seed": 2}),
}


class TestAxisFirstLayout:
    @pytest.mark.parametrize("family", list(RULE_FAMILIES))
    def test_build_rule_nodes_are_axis_first(self, family):
        make, settings = RULE_FAMILIES[family]
        w = make()
        base = build_rule(w, 1.0, **settings)
        rescaled = build_rule(w, 1.7, **settings)
        assert base.scale == 1.0 and rescaled.scale == 1.7
        for rule in (base, rescaled):
            assert rule.nodes.shape == (len(rule.weights), 2)
            assert _axis_first(rule.nodes)
        np.testing.assert_array_equal(rescaled.nodes, base.nodes * 1.7)

    @pytest.mark.parametrize("mc_samples", [None, 2 ** 12], ids=["tensor", "mc"])
    def test_integrate_is_the_estimate_of_integrate_with_error(
            self, w_partial, mc_samples):
        mu = make_measure(w_partial, 1.0, order=12, mc_samples=mc_samples,
                          seed=3)
        vals, grad = poly_gauss(4, 2, even_axes=frozenset({0})).jet(mu.nodes, 1)
        stacked = np.stack([vals, vals ** 2, grad[:, 1]]).T
        assert type(integrate(mu, vals)) is float
        assert integrate(mu, vals) == integrate_with_error(mu, vals)[0]
        for values in (stacked, np.ascontiguousarray(stacked), grad):
            est = integrate(mu, values)
            assert est.shape == (values.shape[1],)
            np.testing.assert_array_equal(est, integrate_with_error(mu, values)[0])

    def test_norm_weights_computed_once(self, w_partial):
        mu = make_measure(w_partial, 1.3, order=8)
        w = mu.norm_weights
        assert mu.norm_weights is w
        np.testing.assert_array_equal(w, mu.rule.weights * mu.normalization)
        with pytest.raises(ValueError):
            w[0] = 0.0


def _counting(f):
    """f with a jet that records the order of every call."""
    calls = []

    def jet(x, order):
        calls.append(order)
        return f.jet(x, order)

    return dataclasses.replace(f, jet=jet), calls


class TestNodeJet:
    @pytest.mark.parametrize("mc_samples", [None, 2 ** 12], ids=["tensor", "mc"])
    def test_checks_on_one_field_share_one_jet(self, w_partial, mc_samples):
        mu = make_measure(w_partial, 1.0, order=12, mc_samples=mc_samples,
                          seed=1)
        f, calls = _counting(poly_gauss(4, 2, even_axes=frozenset({0})))
        for level in ("basic", "gradient_stability", "l2_stability"):
            check_poincare(mu, f, 2.0, level)
        for p in (1.0, 1.5):
            check_beckner(mu, f, p, 2.0)
        check_lsi(mu, f, 2.0)
        assert calls == [1]

    def test_second_field_recomputes(self, w_partial):
        mu = make_measure(w_partial, 1.0, order=12)
        f, f_calls = _counting(poly_gauss(4, 2, even_axes=frozenset({0})))
        g, g_calls = _counting(gaussian(1.3, 1.2, 2))
        check_poincare(mu, f)
        check_poincare(mu, g)
        check_beckner(mu, g, 1.0, 2.0)
        check_poincare(mu, f)
        assert f_calls == [1, 1] and g_calls == [1]

    def test_at_scale_measure_takes_its_own_jet(self, w_partial):
        mu = make_measure(w_partial, 1.0, order=12)
        base = poly_gauss(4, 2, even_axes=frozenset({0}))
        f, calls = _counting(base)
        check_poincare(mu, f)
        other = mu.at_scale(1.5)
        check_poincare(other, f)
        assert calls == [1, 1]
        np.testing.assert_array_equal(other.node_jet(f)[0],
                                      base.value(other.nodes))
        assert calls == [1, 1]

    def test_kept_jet_is_read_only(self, w_partial):
        mu = make_measure(w_partial, 1.0, order=8)
        vals, grad = mu.node_jet(poly_gauss(4, 2))
        with pytest.raises(ValueError):
            vals[0] = 0.0
        with pytest.raises(ValueError):
            grad[0, 1] = 0.0


class TestCones:
    def test_product_cone_membership(self):
        # a half-line times a plane
        cone = Cone(3, ((1.0, 0.0, 0.0),))
        assert cone.contains([1.0, -5.0, 2.0])
        assert not cone.contains([-1.0, 0.0, 0.0])
        assert cone.axis_signature() == ("half+", "full", "full")

    def test_product_cone_normal(self):
        cone = Cone(2, ((1.0, 0.0),))
        np.testing.assert_allclose(cone.boundary_normal([0.0, 3.0]), [-1.0, 0.0])

    def test_negative_halfspace_signature(self):
        cone = Halfspace(2, (-1.0, 0.0))
        assert cone.axis_signature() == ("half-", "full")
        w = make_weight(Monomial((1.0, 0.0)), 2, cone=cone)
        rule = build_rule(w, 1.0, order=8)
        assert np.all(rule.nodes[:, 0] < 0)
        assert build_rule(w, 1.0).mass == pytest.approx(
            np.sqrt(2 * np.pi), rel=1e-12)

    def test_interior_sampler_respects_cone(self, rng):
        cone = Orthant(3, frozenset({0, 1}))
        pts = cone.sample_interior(rng, 500, radius=5.0)
        assert np.all(cone.is_interior(pts))
        assert np.all(np.linalg.norm(pts, axis=1) <= 5.0 + 1e-9)


class TestSerializer:
    def test_clean_handles_numpy_and_sets(self):
        out = _clean({"a": np.float64(1.5), "b": np.int64(2),
                      "c": np.bool_(True), "d": np.arange(3),
                      "e": frozenset({3, 1})})
        assert out == {"a": 1.5, "b": 2, "c": True, "d": [0, 1, 2], "e": [1, 3]}

    def test_emit_json_specials(self):
        parts = []
        _emit_json({"nan": float("nan"), "inf": float("inf"), "x": 1.25}, parts)
        payload = json.loads("".join(parts))
        assert payload == {"nan": "nan", "inf": "inf", "x": 1.25}

    def test_emit_json_sorted_keys(self):
        parts = []
        _emit_json({"b": 1, "a": 2}, parts)
        assert "".join(parts) == '{"a":2,"b":1}'
