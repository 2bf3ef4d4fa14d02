import ast
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausscone import measures, weights
from gausscone.config import build_weight, parse_config
from gausscone.cones import FullSpace, Halfspace, Orthant
from gausscone.errors import (
    AmbiguousNormalError,
    DomainError,
    InadmissibleWeightError,
    NotHomogeneousError,
    SingularityError,
    UncertifiedCurvatureError,
)
from gausscone.weights import (
    CLAIM_SAMPLE,
    CurvatureCertificate,
    CustomLogWeight,
    DunklProduct,
    GaussianTilt,
    Monomial,
    PartialProduct,
    Radial,
    curvature_lower_bound,
    make_weight,
)

from oracles import (
    gamma_moment,
    monomial_grad_log,
    monomial_hess_log,
    monomial_log_w,
)


class TestEval:
    def test_monomial_unit_point(self, w_mono_12):
        assert w_mono_12.eval([1.0, 1.0]) == pytest.approx(1.0)

    def test_monomial_product(self, w_mono_12):
        assert w_mono_12.eval([2.0, 3.0]) == pytest.approx(18.0)

    def test_tilt_origin(self):
        w = make_weight(GaussianTilt(-0.5), 2)
        assert w.eval([0.0, 0.0]) == pytest.approx(1.0)

    def test_zero_on_boundary(self, w_mono_12):
        assert w_mono_12.eval([0.0, 1.0]) == 0.0

    def test_outside_closure_raises(self, w_mono_12):
        with pytest.raises(DomainError):
            w_mono_12.eval([-1.0, 1.0])


class TestLogDerivatives:
    def test_monomial_grad(self, w_mono_12):
        np.testing.assert_allclose(w_mono_12.grad_log([1.0, 1.0]), [1.0, 2.0])

    def test_monomial_hess_diag(self, w_mono_12):
        np.testing.assert_allclose(w_mono_12.hess_log([1.0, 1.0]),
                                   np.diag([-1.0, -2.0]))

    def test_tilt_hess_constant(self):
        w = make_weight(GaussianTilt(-0.5), 3)
        pts = np.random.default_rng(0).normal(size=(50, 3))
        hess = w.hess_log(pts)
        np.testing.assert_allclose(hess, np.broadcast_to(0.5 * np.eye(3),
                                                         (50, 3, 3)), atol=0)

    def test_radial_grad(self):
        w = make_weight(Radial(2.5), 2, cone=FullSpace(2), certify=False)
        x = np.array([1.0, 2.0])
        np.testing.assert_allclose(w.grad_log(x), 2.5 * x / 5.0)

    def test_singularity_on_zero_set(self, w_mono_12):
        with pytest.raises(SingularityError):
            w_mono_12.grad_log([0.0, 1.0])

    def test_fd_consistency(self):
        # analytic hess(log w) matches finite differences of grad(log w)
        specs = [Monomial((1.5, 0.7)), Radial(1.2), GaussianTilt(0.3),
                 DunklProduct(((np.sqrt(0.5), np.sqrt(0.5)),), (0.8,))]
        x = np.array([0.9, 0.4])
        h = 1e-6
        for spec in specs:
            w = make_weight(spec, 2, cone=FullSpace(2), certify=False)
            hess = spec.hess_log(x[None, :])[0]
            for ax in range(2):
                step = np.zeros(2)
                step[ax] = h
                fd = (spec.grad_log((x + step)[None, :])[0]
                      - spec.grad_log((x - step)[None, :])[0]) / (2 * h)
                np.testing.assert_allclose(hess[ax], fd, rtol=1e-6, atol=1e-7)


    @pytest.mark.parametrize("spec", [
        Monomial((1.5, 0.7)), Radial(1.2), GaussianTilt(0.3),
        DunklProduct(((0.6, 0.8), (np.sqrt(0.5), -np.sqrt(0.5))), (0.8, 0.25)),
        PartialProduct(Monomial((1.5,)), (1,)),
    ], ids=["Monomial", "Radial", "GaussianTilt", "DunklProduct", "PartialProduct"])
    def test_spec_derivatives_are_axis_first(self, spec):
        # grad(log w) and hess(log w) are equal on a row-major batch and its
        # axis-first copy, and axis-first on the latter
        rows = np.random.default_rng(3).uniform(0.2, 2.0, size=(40, 2))
        cols = np.asfortranarray(rows)
        for name in ("grad_log", "hess_log"):
            a, b = getattr(spec, name)(rows), getattr(spec, name)(cols)
            np.testing.assert_array_equal(a, b)
            assert np.moveaxis(b, 0, -1).flags.c_contiguous


class TestCurvature:
    def test_monomial_analytic_zero(self):
        for exps in [(1.0,), (1.0, 2.0), (0.5, 0.0, 3.0)]:
            w = make_weight(Monomial(exps), len(exps))
            assert w.curvature == 0.0
            assert w.certificate.kind == "analytic"

    def test_tilt_equals_s(self, w_tilt):
        assert w_tilt.curvature == -0.5

    def test_tilt_below_minus_one_rejected(self):
        with pytest.raises(InadmissibleWeightError):
            GaussianTilt(-1.0)

    def test_radial_1d_zero(self):
        w = make_weight(Radial(1.5), 1)
        assert w.curvature == 0.0

    def test_radial_2d_uncertified(self):
        w = make_weight(Radial(1.0), 2)
        assert w.curvature is None
        with pytest.raises(UncertifiedCurvatureError):
            _ = w.kw

    def test_radial_2d_bound_refused(self):
        w = make_weight(Radial(1.0), 2)
        with pytest.raises(InadmissibleWeightError):
            curvature_lower_bound(w)

    def test_dunkl_zero(self):
        spec = DunklProduct(((1.0, 0.0), (np.sqrt(0.5), np.sqrt(0.5))), (0.5, 0.7))
        w = make_weight(spec, 2, cone=Halfspace(2, (np.sqrt(0.5), np.sqrt(0.5))))
        assert w.curvature == 0.0

    def test_partial_product_inherits_nonpositive_inner(self):
        spec = PartialProduct(GaussianTilt(-0.25), (1,))
        w = make_weight(spec, 3)
        assert w.curvature == -0.25

    def test_partial_product_caps_positive_inner_at_zero(self):
        # free coordinates contribute zero rows to hess(log w): the smallest
        # eigenvalue of -hess(log w) is min(K_inner, 0)
        w = make_weight(PartialProduct(GaussianTilt(0.8), (0,)), 3)
        assert w.curvature == 0.0
        # sampled certification agrees
        pts = np.random.default_rng(0).normal(size=(200, 3))
        eigs = np.linalg.eigvalsh(-w.hess_log(pts))
        assert abs(eigs.min() - 0.0) < 1e-12

    def test_custom_quartic_sampled(self):
        # w = e^{-|x|^4}: -hess(log w) = 4|x|^2 I + 8 x x^T, infimum 0 at the
        # origin, so the claim K_w = 0 holds; the sample finds its minimum
        # 4 r^2 near the origin and keeps the claim as it is
        w = make_weight(_quartic(0.0), 2)
        assert w.certificate.kind == "claimed"
        assert w.certificate.num_points == CLAIM_SAMPLE
        assert w.curvature == 0.0
        assert 0.0 <= w.certificate.min_eigenvalue_found <= 1e-2

    def test_custom_inadmissible(self):
        # log w = |x|^2 /2 * 3 => -hess log w = -3 I < -I everywhere: the
        # claim K_w = 0 is refuted, naming the point and the eigenvalue
        with pytest.raises(InadmissibleWeightError,
                           match=r"refuted at x = .*there is -3"):
            make_weight(_tilt(-3.0, claimed_kw=0.0), 2)

    def test_false_claim_refuted_near_the_origin(self):
        # the quartic's -hess(log w) has eigenvalue 4 r^2 < 0.5 for r < 0.35
        with pytest.raises(InadmissibleWeightError, match="claimed K_w = 0.5"):
            make_weight(_quartic(0.5), 2)

    def test_claim_at_or_below_minus_one_refused_unsampled(self, monkeypatch):
        monkeypatch.setattr(weights, "_sampled_curvature", _never_sampled)
        for claim in (-1.0, -2.5, float("nan"), float("inf")):
            with pytest.raises(InadmissibleWeightError, match="violates -1 < K_w"):
                make_weight(_tilt(0.3, claimed_kw=claim), 2)

    def test_non_finite_hessian_refutes(self):
        spec = CustomLogWeight(lambda p: np.zeros(len(p)),
                               lambda p: np.zeros_like(p),
                               lambda p: np.full((len(p), 2, 2), np.nan),
                               claimed_kw=0.0)
        with pytest.raises(InadmissibleWeightError, match="there is nan"):
            make_weight(spec, 2)

    def test_custom_without_claim_stays_uncertified(self, monkeypatch):
        monkeypatch.setattr(weights, "_sampled_curvature", _never_sampled)
        w = make_weight(_tilt(0.3), 2)
        assert w.curvature is None
        assert w.certificate == CurvatureCertificate(
            "uncertified", "custom weight claims no curvature bound")
        with pytest.raises(UncertifiedCurvatureError):
            _ = w.kw
        with pytest.raises(InadmissibleWeightError, match="claims no curvature"):
            curvature_lower_bound(w)

    def test_claim_on_partial_inner_capped_and_sampled_lifted(self, monkeypatch):
        seen = []

        def spy(weight, claim, detail):
            seen.append((weight.dim, claim))
            return sample(weight, claim, detail)

        sample = weights._sampled_curvature
        monkeypatch.setattr(weights, "_sampled_curvature", spy)
        w = make_weight(PartialProduct(_tilt(0.3, claimed_kw=0.3), (0,)), 3)
        assert seen == [(3, 0.0)]
        assert w.curvature == 0.0
        assert w.certificate.kind == "claimed"
        assert w.certificate.detail == (
            "claimed by the caller; capped at zero by the free coordinates")
        # the free coordinates' zero rows put the minimum found at zero
        assert w.certificate.min_eigenvalue_found == 0.0

    def test_claim_never_raised_to_the_sampled_minimum(self):
        w = make_weight(_tilt(0.3, claimed_kw=0.1), 2)
        assert w.curvature == 0.1
        assert w.certificate.min_eigenvalue_found == pytest.approx(0.3, rel=1e-12)

    @pytest.mark.parametrize("config_weight, dim", [
        ({"kind": "monomial", "exponents": [1.5, 0.0]}, 2),
        ({"kind": "radial", "alpha": 1.5}, 1),
        ({"kind": "radial", "alpha": 1.0}, 2),
        ({"kind": "radial", "alpha": 0.0}, 3),
        ({"kind": "dunkl", "roots": [[0.6, 0.8]], "multiplicities": [0.5]}, 2),
        ({"kind": "gaussian_tilt", "s": 0.4}, 2),
        ({"kind": "partial_product", "coords": [0],
          "inner": {"kind": "gaussian_tilt", "s": 0.4}}, 2),
        ({"kind": "one"}, 2),
    ], ids=["monomial", "radial-1d", "radial-2d", "radial-const",
            "dunkl", "gaussian_tilt", "partial_product", "one"])
    def test_schema_weights_certify_unsampled(self, monkeypatch, config_weight,
                                              dim):
        # analytic bounds are taken as they are, never sampled
        monkeypatch.setattr(weights, "_sampled_curvature", _never_sampled)
        cfg = parse_config({"dim": dim, "weight": config_weight, "suites": []})
        w = build_weight(cfg)
        assert w.certificate.kind in ("analytic", "uncertified")
        assert (w.curvature is None) == (w.certificate.kind == "uncertified")


def _never_sampled(*args):
    raise AssertionError("a curvature bound was sampled")


def _tilt(s, **kw):
    """A custom weight e^{-s|x|^2/2}: -hess(log w) = s I."""
    return CustomLogWeight(
        lambda p: -0.5 * s * np.sum(p ** 2, axis=1),
        lambda p: -s * p,
        lambda p: np.broadcast_to(-s * np.eye(p.shape[1]),
                                  (len(p), p.shape[1], p.shape[1])).copy(),
        name="tilt", **kw)


def _quartic(claim):
    """A custom weight e^{-|x|^4} with the claim K_w = claim."""
    def hess(pts):
        n = pts.shape[1]
        r2 = np.sum(pts ** 2, axis=1)
        outer = pts[:, :, None] * pts[:, None, :]
        return -(4.0 * r2[:, None, None] * np.eye(n)[None] + 8.0 * outer)

    return CustomLogWeight(
        lambda p: -np.sum(p ** 2, axis=1) ** 2,
        lambda p: -4.0 * p * np.sum(p ** 2, axis=1)[:, None],
        hess, name="quartic", claimed_kw=claim)


class TestEuler:
    def test_monomial_point(self, w_mono_12):
        assert w_mono_12.euler_residual([2.0, 3.0]) == pytest.approx(0.0, abs=1e-12)

    def test_radial(self):
        w = make_weight(Radial(1.5), 2, certify=False)
        for x in ([1.0, 0.5], [-2.0, 3.0]):
            assert abs(w.euler_residual(x)) < 1e-12

    def test_tilt_not_homogeneous(self, w_tilt):
        with pytest.raises(NotHomogeneousError):
            w_tilt.euler_residual([1.0])

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_euler_rescaled_bound_random(self, seed):
        # |x . grad w - alpha w| <= 1e-10 w(x)(1+|x|) at random interior points
        rng = np.random.default_rng(seed)
        exps = tuple(rng.uniform(0.0, 3.0, size=2))
        w = make_weight(Monomial(exps), 2)
        pts = w.cone.sample_interior(rng, 40, radius=8.0)
        res = np.abs(w.euler_residual(pts))
        bound = 1e-10 * w.eval(pts) * (1.0 + np.linalg.norm(pts, axis=1))
        assert np.all(res <= bound + 1e-300)


class TestInvariants:
    def test_euler_identity_thousand_points(self, rng):
        specs = [(Monomial((1.0, 2.0)), 2), (Monomial((0.5, 1.7)), 2),
                 (Radial(1.5), 2),
                 (DunklProduct(((1.0, 0.0), (0.0, 1.0)), (0.5, 1.0)), 2)]
        for spec, dim in specs:
            w = make_weight(spec, dim, certify=False)
            pts = w.cone.sample_interior(rng, 1000, radius=9.0)
            res = np.abs(w.euler_residual(pts))
            bound = 1e-10 * w.eval(pts) * (1.0 + np.linalg.norm(pts, axis=1))
            assert np.all(res <= bound + 1e-300)

    def test_partial_product_curvature_matches_inner(self):
        # equality with the inner bound holds whenever K_inner <= 0 (the
        # free-coordinate zero rows only matter for positive inner bounds)
        inner = GaussianTilt(-0.3)
        w_in = make_weight(inner, 2)
        w_part = make_weight(PartialProduct(inner, (0, 2)), 4)
        assert w_part.curvature == w_in.curvature

    def test_monomial_radial_log_concave_samples(self, rng):
        for spec, dim in [(Monomial((1.5, 2.5)), 2), (Radial(2.0), 1)]:
            w = make_weight(spec, dim)
            pts = w.cone.sample_interior(rng, 500, radius=6.0)
            eigs = np.linalg.eigvalsh(-w.hess_log(pts))
            assert eigs.min() >= -1e-12

    def test_free_axes_partial(self, w_partial, w_mono_12):
        assert w_partial.free_axes() == (1,)
        assert w_mono_12.free_axes() == ()


class TestSpecProtocol:
    """Specs and cones are their own cache keys; singular axes come from the
    per-axis exponents; `certify` is a bool with four outcomes."""

    @pytest.mark.parametrize("spec, dim, x", [
        (DunklProduct(((1.0, 0.0),), (0.75,)), 2, [1e-13, 1.0]),
        (Radial(1.5), 1, [1e-13]),
    ], ids=["dunkl-axis", "radial-1d"])
    def test_hyperplane_guard_from_exponents(self, spec, dim, x):
        # both weights vanish on x_0 = 0, so the 1e-12 guard applies to them
        w = make_weight(spec, dim)
        assert w.singular_axes() == (0,)
        with pytest.raises(SingularityError):
            w.grad_log(x)
        with pytest.raises(SingularityError):
            w.hess_log(x)

    def test_singular_axes_of_partial_and_unstructured(self):
        assert make_weight(PartialProduct(Monomial((0.0, 2.0)), (2, 0)),
                           3).singular_axes() == (0,)
        assert make_weight(Radial(1.0), 2, certify=False).singular_axes() == ()
        assert make_weight(GaussianTilt(0.5), 2).singular_axes() == ()

    def test_equal_specs_share_one_rule(self, monkeypatch):
        monkeypatch.setattr(measures, "_RULE_CACHE", {})
        build = measures.build_rule
        first = build(make_weight(Monomial((1.5, 0.0)), 2), order=8)
        again = build(make_weight(Monomial([1.5, 0]), 2), order=8)
        assert again is first
        assert len(measures._RULE_CACHE) == 1

    def test_same_spec_on_two_cones_gets_two_rules(self, monkeypatch):
        monkeypatch.setattr(measures, "_RULE_CACHE", {})
        spec = GaussianTilt(0.5)
        build = measures.build_rule
        half = build(make_weight(spec, 2, cone=Orthant(2, {0})), order=8)
        full = build(make_weight(spec, 2, cone=FullSpace(2)), order=8)
        assert len(measures._RULE_CACHE) == 2
        assert full.mass == pytest.approx(2.0 * half.mass, rel=1e-12)

    def test_custom_weights_with_different_callables_get_two_rules(
            self, monkeypatch):
        monkeypatch.setattr(measures, "_RULE_CACHE", {})

        def tilt(s):
            return CustomLogWeight(
                lambda p: -0.5 * s * np.sum(p ** 2, axis=1),
                lambda p: -s * p,
                lambda p: np.broadcast_to(-s * np.eye(p.shape[1]),
                                          (len(p), p.shape[1], p.shape[1])),
                name="tilt")

        for spec in (tilt(0.2), tilt(0.4)):
            measures.build_rule(make_weight(spec, 2, certify=False),
                                mc_samples=512)
        assert len(measures._RULE_CACHE) == 2

    def test_make_weight_analytic(self):
        w = make_weight(Monomial((1.0, 0.5)), 2)
        assert (w.curvature, w.certificate.kind, w.certificate.detail) == (
            0.0, "analytic", "analytic: homogeneous log-concave")

    def test_make_weight_no_bound_exists(self):
        # the spec proves that no K > -1 exists: the weight stays uncertified
        w = make_weight(Radial(1.0), 2)
        assert w.curvature is None
        assert w.certificate.kind == "uncertified"
        assert w.certificate.detail == (
            "log-Hessian unbounded below near the vertex (dim >= 2)")

    def test_make_weight_custom_sampled(self):
        # a true claim is kept, with the sample size and the minimum found
        w = make_weight(_tilt(0.3, claimed_kw=0.3), 2)
        assert w.certificate.kind == "claimed"
        assert w.certificate.detail == "claimed by the caller"
        assert w.certificate.num_points == CLAIM_SAMPLE
        assert w.curvature == 0.3
        assert w.certificate.min_eigenvalue_found == pytest.approx(0.3, rel=1e-12)

    @pytest.mark.parametrize("spec", [Radial(0.0), Monomial((0.0,))],
                             ids=["radial", "monomial"])
    def test_constant_1d_weight_gets_the_full_line(self, spec):
        # one natural-cone rule: the orthant of the vanishing 1-D blocks
        w = make_weight(spec, 1)
        assert w.cone == FullSpace(1)
        assert measures.build_rule(w, order=8).mass == pytest.approx(
            np.sqrt(2.0 * np.pi), rel=1e-13)

    def test_vanishing_1d_radial_gets_the_half_line(self):
        assert make_weight(Radial(1.5), 1).cone == Orthant(1, {0})

    @pytest.mark.parametrize("coords", [(0, 5), (0,)], ids=["beyond-dim", "too-few"])
    @pytest.mark.parametrize("cone", [None, FullSpace(2)], ids=["natural", "given"])
    def test_partial_product_coords_refused_by_name(self, coords, cone):
        spec = PartialProduct(Monomial((1.0, 1.0)), coords)
        with pytest.raises(ValueError, match=re.escape(f"coords {coords}")):
            make_weight(spec, 2, cone=cone)

    def test_make_weight_certify_false(self):
        w = make_weight(Monomial((1.0, 0.5)), 2, certify=False)
        assert w.curvature is None
        assert w.certificate.kind == "uncertified"
        assert w.certificate.detail == "analytic: homogeneous log-concave"
        with pytest.raises(UncertifiedCurvatureError, match="DunklProduct"):
            _ = w.kw


class TestBoundaryNormal:
    def test_orthant_facet(self):
        cone = Orthant(2, frozenset({0, 1}))
        np.testing.assert_allclose(cone.boundary_normal([0.0, 1.0]), [-1.0, 0.0])

    def test_halfspace(self):
        cone = Halfspace(2, (1.0, 0.0))
        np.testing.assert_allclose(cone.boundary_normal([0.0, 5.0]), [-1.0, 0.0])

    def test_vertex_ambiguous(self):
        cone = Orthant(2, frozenset({0, 1}))
        with pytest.raises(AmbiguousNormalError):
            cone.boundary_normal([0.0, 0.0])

    def test_x_dot_eta_zero(self, rng):
        for cone in (Orthant(3, frozenset({0, 2})),
                     Halfspace(2, (0.6, 0.8))):
            pts, etas = cone.boundary_sample(rng, 100)
            assert np.max(np.abs(np.sum(pts * etas, axis=1))) < 1e-12
            norms = np.linalg.norm(etas, axis=1)
            np.testing.assert_allclose(norms, 1.0)


class TestMonomialIsDunklProduct:
    """A monomial is the Dunkl product of the coordinate roots: the same
    spec, the same rule, and the per-axis formulas bit for bit."""

    @staticmethod
    def _cases(dim, seed):
        rng = np.random.default_rng(seed)
        exps = rng.choice([0.0, 0.5, 1.5, 3.0], size=dim) * rng.uniform(0.5, 2.0, dim)
        if dim > 1:
            exps[rng.integers(dim)] = 0.0  # at least one free axis
        pts = rng.normal(size=(64, dim)) * rng.uniform(0.1, 5.0)
        return tuple(exps), pts

    @staticmethod
    def _assert_formulas(exps, pts):
        spec = Monomial(exps)
        for got, expect in ((spec.log_w(pts), monomial_log_w(exps, pts)),
                            (spec.grad_log(pts), monomial_grad_log(exps, pts)),
                            (spec.hess_log(pts), monomial_hess_log(exps, pts))):
            assert got.shape == expect.shape
            assert got.tobytes() == np.ascontiguousarray(expect).tobytes()

    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("seed", range(4))
    def test_log_derivatives_at_interior_points(self, dim, seed):
        self._assert_formulas(*self._cases(dim, seed))

    @pytest.mark.parametrize("dim", range(2, 7))
    @pytest.mark.parametrize("seed", range(4))
    def test_log_derivatives_on_zero_exponent_axes(self, dim, seed):
        # x_i = 0 where a_i = 0: w does not depend on x_i, and every
        # derivative stays finite there
        exps, pts = self._cases(dim, seed)
        pts[:, np.asarray(exps) == 0.0] = 0.0
        spec = Monomial(exps)
        assert np.all(np.isfinite(spec.grad_log(pts)))
        assert np.all(np.isfinite(spec.hess_log(pts)))
        self._assert_formulas(exps, pts)

    def test_single_point_with_a_zero_coordinate(self):
        w = make_weight(Monomial((1.5, 0.0)), 2)
        np.testing.assert_array_equal(w.grad_log([1.0, 0.0]), [1.5, 0.0])
        np.testing.assert_array_equal(w.hess_log([1.0, 0.0]),
                                      [[-1.5, 0.0], [0.0, 0.0]])

    def test_coordinate_dunkl_product_is_the_same_spec_and_rule(self, monkeypatch):
        monkeypatch.setattr(measures, "_RULE_CACHE", {})
        mono = Monomial((1.5, 0.0, 2.0))
        dunkl = DunklProduct(tuple(map(tuple, np.eye(3))), (0.75, 0.0, 1.0))
        assert mono == dunkl and hash(mono) == hash(dunkl)
        first = measures.build_rule(make_weight(mono, 3), order=6)
        assert measures.build_rule(make_weight(dunkl, 3), order=6) is first
        assert len(measures._RULE_CACHE) == 1

    def test_constant_monomial_keeps_its_dimension(self):
        assert Monomial((0.0,)).dim_hint() == 1
        assert Monomial((0.0, 0.0, 0.0)).dim_hint() == 3
        with pytest.raises(ValueError, match="monomial exponents"):
            Monomial((1.0, -0.5))

    def test_subnormal_exponent_is_held_exactly(self):
        # k = a/2 underflows to zero for a = 5e-324; the exponent must not,
        # or the axis loses its half-line and the mass doubles
        exps = (0.0, 5e-324)
        assert Monomial(exps).exponents == (5e-324,)
        rule = measures.build_rule(make_weight(Monomial(exps), 2), 1.0, order=16)
        expect = 2.0 * gamma_moment(0.0, 0) * gamma_moment(5e-324, 0)
        assert rule.mass == pytest.approx(expect, rel=1e-11)
        assert rule.mass == pytest.approx(np.pi, rel=1e-11)


def test_import_leaves_sampling_scipy_unloaded():
    # the library does not use scipy: neither `import gausscone` nor
    # certifying a claimed curvature bound may load any of it
    code = ("import sys, numpy as np, gausscone as g\n"
            "w = g.make_weight(g.CustomLogWeight(lambda p: -0.15 * (p ** 2).sum(1),"
            " lambda p: -0.3 * p, lambda p: np.broadcast_to(-0.3 * np.eye(2),"
            " (len(p), 2, 2)).copy(), claimed_kw=0.3), 2)\n"
            "assert w.certificate.kind == 'claimed'\n"
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_module_imports_scipy():
    # the run path and the library use numpy only; scipy is not a dependency
    src = Path(weights.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (
                f"{path.name}:{node.lineno} imports scipy")
