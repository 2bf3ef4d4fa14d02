"""Bakry-Emery Gamma-calculus for the diffusion generator

    L_w f = Lap f - x . grad f + grad(log w) . grad f

(`generator` also covers mu_{w,lambda}, whose drift is x . grad f / lambda^2),
its carre du champ Gamma(f,g) = grad f . grad g, the iterated form

    Gamma_2(f) = ||hess f||_F^2 + |grad f|^2 - hess(log w)(grad f, grad f),

the pointwise curvature-dimension margin Gamma_2 - (1+K_w) Gamma, and the
Neumann boundary residual that gates fields into orthant-cone checks.

Third derivatives never appear analytically: the Bochner identity residual
uses a centered finite difference of L_w applied to Gamma(f,f), which is the
only place they would be needed.  Integration by parts is one
`measures.nu_integral` of slow factors, as every integral against w dx is:
the linear `generator` on f's `fields.slow_jet` (a structured field's
without the Hessian) gives L_w f over f's envelope, so no Gaussian is formed.

`generator` trusts its points: it takes grad(log w) from the weight's spec,
because rule nodes are interior to the cone and off the zero set by
construction.  The entry points that take a caller's points
(`apply_generator`, `gamma2`, the stencil of `bochner_residual`) check them
with `Weight.check_regular` first, as `Weight.grad_log` and
`Weight.hess_log` do.
"""

from __future__ import annotations

import numpy as np

from .cones import Cone, _as_points
from .errors import NoBoundaryError
from .fields import ScalarField, slow_jet
from .measures import Measure, nu_integral
from .weights import Weight


def generator(weight: Weight, pts: np.ndarray, grad: np.ndarray,
              lap: np.ndarray, lam: float = 1.0) -> np.ndarray:
    """L_w at the points from precomputed derivatives: the generator of
    mu_{w,lambda},

        lap - (x . grad) / lambda^2 + grad(log w) . grad.

    grad is (N, n) for one function, with lap (N,), or (N, n, m) for m
    functions at once, with lap (N, m).  The only implementation of L_w.
    The points are not checked: they must lie inside the cone and off the
    zero set of w, as rule nodes do.
    """
    drift = np.einsum("Ni,Ni...->N...", pts, grad)
    tilt = np.einsum("Ni,Ni...->N...", weight.spec.grad_log(pts), grad)
    return lap - drift / (lam * lam) + tilt


def apply_generator(weight: Weight, f: ScalarField, x) -> float | np.ndarray:
    """L_w f at x; a point outside the cone or on the zero set of w raises
    DomainError or SingularityError (`Weight.check_regular`)."""
    pts, single = _as_points(x, weight.dim)
    weight.check_regular(pts)
    _, grad, hess = f.jet(pts, 2)
    out = generator(weight, pts, grad, np.trace(hess, axis1=1, axis2=2))
    return float(out[0]) if single else out


def carre_du_champ(f: ScalarField, g: ScalarField, x) -> float | np.ndarray:
    pts, single = _as_points(x, f.dim)
    out = np.sum(f.grad(pts) * g.grad(pts), axis=1)
    return float(out[0]) if single else out


def _gamma2(weight: Weight, pts: np.ndarray, grad: np.ndarray,
            hess: np.ndarray) -> np.ndarray:
    quad = np.einsum("Nij,Ni,Nj->N", weight.hess_log(pts), grad, grad)
    return np.sum(hess ** 2, axis=(1, 2)) + np.sum(grad ** 2, axis=1) - quad


def gamma2(weight: Weight, f: ScalarField, x) -> float | np.ndarray:
    pts, single = _as_points(x, weight.dim)
    out = _gamma2(weight, pts, *f.jet(pts, 2)[1:])
    return float(out[0]) if single else out


def cd_margin(weight: Weight, f: ScalarField, sample: np.ndarray | None = None,
              num_points: int = 10_000, radius: float = 6.0,
              seed: int = 0) -> float:
    """min over the sample of Gamma_2(f) - (1 + K_w) Gamma(f,f).

    Nonnegative up to round-off for admissible weights (the CD(1+K_w, inf)
    condition); equality cases are affine fields under Gaussian tilts.
    """
    kw = weight.kw
    if sample is None:
        rng = np.random.default_rng(seed)
        sample = weight.cone.sample_interior(rng, num_points, radius=radius)
    pts, _ = _as_points(sample, weight.dim)
    _, grad, hess = f.jet(pts, 2)
    g2 = _gamma2(weight, pts, grad, hess)
    return float(np.min(g2 - (1.0 + kw) * np.sum(grad ** 2, axis=1)))


def bochner_residual(weight: Weight, f: ScalarField, x,
                     h: float | None = None) -> float:
    """|0.5 L_w Gamma(f,f) - Gamma(f, L_w f) - Gamma_2(f)| at a point.

    The outer L_w acts on Gamma(f,f) through centered differences of step h
    (default 1e-4 * (1 + |x|)), so the residual is O(h^2) for smooth fields.
    """
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-4 * (1.0 + float(np.linalg.norm(x)))
    dim = weight.dim

    # one jet on the stencil x, x + h e_a, x - h e_a gives Gamma(f,f) and
    # L_w f at every node and Gamma_2(f) at x
    eye = h * np.eye(dim)
    pts = x + np.vstack([np.zeros(dim), eye, -eye])
    weight.check_regular(pts)
    _, grad, hess = f.jet(pts, 2)
    gam = np.sum(grad ** 2, axis=1)
    lf = generator(weight, pts, grad, np.trace(hess, axis1=1, axis2=2))
    up, dn = slice(1, 1 + dim), slice(1 + dim, None)

    # centered-difference Laplacian and gradient of Gamma(f,f)
    lap = float(np.sum((gam[up] - 2.0 * gam[0] + gam[dn]) / h ** 2))
    grad_gam = (gam[up] - gam[dn]) / (2.0 * h)
    l_gamma = float(generator(weight, pts[:1], grad_gam[None, :],
                              np.array([lap]))[0])

    # Gamma(f, L_w f) via centered differences of L_w f
    gamma_f_lf = float(grad[0] @ ((lf[up] - lf[dn]) / (2.0 * h)))
    g2 = float(_gamma2(weight, pts[:1], grad[:1], hess[:1])[0])
    return abs(0.5 * l_gamma - gamma_f_lf - g2)


def neumann_residual(f: ScalarField, cone: Cone,
                     boundary_sample: tuple[np.ndarray, np.ndarray] | None = None,
                     count: int = 200, seed: int = 0) -> float:
    """max |grad f . eta| over sampled smooth boundary points.

    Fields even in every constrained axis return exact zero by parity.
    """
    if not cone.has_boundary:
        raise NoBoundaryError("cone has no boundary")
    constrained = cone.constrained_axes()
    if constrained and constrained <= f.even_axes:
        return 0.0
    if boundary_sample is None:
        rng = np.random.default_rng(seed)
        boundary_sample = cone.boundary_sample(rng, count)
    pts, etas = boundary_sample
    grads = f.grad(pts)
    return float(np.max(np.abs(np.sum(grads * etas, axis=1))))


def is_neumann_admissible(f: ScalarField, cone: Cone, tol: float = 1e-8) -> bool:
    """Admission gate for inequality checks on a cone with facets."""
    return not cone.has_boundary or neumann_residual(f, cone) <= tol


def integration_by_parts_residual(measure: Measure, f: ScalarField,
                                  g: ScalarField) -> float:
    """Relative residual of int (L_w f) g dmu = -int Gamma(f,g) dmu.

    Both sides are one sum on the rule of the measure's settings whose
    Gaussian factor matches the combined decay of the pair plus the
    measure's own Gaussian, so pairs of fast-decaying fields are integrated
    at full precision instead of riding the tail of the lambda = 1 rule.
    The rule carries that factor, so the sum takes f's and g's slow parts.
    """
    lam = measure.scale
    rate = f.decay.rate + g.decay.rate + 0.5 / (lam * lam)

    def slow(pts):
        # both sides fill the rows of one axis-first array
        sides = np.empty((2, len(pts)))
        value, grad, lap = slow_jet(f, pts, 2)
        sides[0] = generator(measure.weight, pts, grad, lap, lam)
        g_value, g_grad = (value, grad) if g is f else slow_jet(g, pts, 1)
        sides[0] *= g_value
        sides[1] = -np.sum(grad * g_grad, axis=1)
        return sides.T

    lhs, rhs = (float(v) for v in nu_integral(measure, slow, rate))
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))
