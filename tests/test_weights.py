import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausscone import measures
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
    CurvatureSampler,
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
        # origin.  Oracle: the closed form evaluated on the certification
        # sample has min eigenvalue 4 r^2 -> 0.
        def log_value(pts):
            return -np.sum(pts ** 2, axis=1) ** 2

        def grad(pts):
            r2 = np.sum(pts ** 2, axis=1)
            return -4.0 * pts * r2[:, None]

        def hess(pts):
            n = pts.shape[1]
            r2 = np.sum(pts ** 2, axis=1)
            outer = pts[:, :, None] * pts[:, None, :]
            return -(4.0 * r2[:, None, None] * np.eye(n)[None] + 8.0 * outer)

        spec = CustomLogWeight(log_value, grad, hess, name="quartic")
        w = make_weight(spec, 2, sampler=CurvatureSampler(num_points=2 ** 14, seed=3))
        assert w.certificate.kind == "sampled"
        assert w.certificate.num_points > 0
        assert 0.0 <= w.curvature <= 1e-3

    def test_custom_inadmissible(self):
        # log w = |x|^2 /2 * 3 => -hess log w = -3 I < -I everywhere
        spec = CustomLogWeight(
            lambda p: 1.5 * np.sum(p ** 2, axis=1),
            lambda p: 3.0 * p,
            lambda p: np.broadcast_to(3.0 * np.eye(p.shape[1]),
                                      (len(p), p.shape[1], p.shape[1])).copy(),
            name="anti-concave")
        with pytest.raises(InadmissibleWeightError):
            make_weight(spec, 2, sampler=CurvatureSampler(num_points=2 ** 11, seed=0))


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
        # the spec proves that no K > -1 exists: a sampler does not override it
        w = make_weight(Radial(1.0), 2,
                        sampler=CurvatureSampler(num_points=2 ** 8))
        assert w.curvature is None
        assert w.certificate.kind == "uncertified"
        assert w.certificate.detail == (
            "log-Hessian unbounded below near the vertex (dim >= 2)")

    def test_make_weight_custom_sampled(self):
        spec = CustomLogWeight(
            lambda p: -0.15 * np.sum(p ** 2, axis=1),
            lambda p: -0.3 * p,
            lambda p: np.broadcast_to(-0.3 * np.eye(p.shape[1]),
                                      (len(p), p.shape[1], p.shape[1])).copy())
        w = make_weight(spec, 2, sampler=CurvatureSampler(num_points=2 ** 8))
        assert w.certificate.kind == "sampled"
        assert w.certificate.num_points > 0
        assert w.curvature == pytest.approx(0.3, rel=1e-12)

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
    # scipy serves only sampled curvature certification, so
    # `import gausscone` must not pay for any of it
    code = ("import sys, gausscone; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
