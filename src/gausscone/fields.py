"""Test fields: the operational stand-in for smooth functions with Neumann
boundary behavior on the cone.

Each field carries exact analytic value/gradient/hessian evaluators
(vectorized over (N, n) point batches), a decay envelope used by the
unnormalized-measure integration contract, and parity tags.  Parity tags are
what admit a field into orthant-cone checks (even in every constrained axis
means the normal derivative vanishes identically) and what lets odd integrals
short-circuit to exact zero in the sharpness computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .polys import PolyND, exponent_table


@dataclass(frozen=True)
class Decay:
    """Envelope |f(x)| <= C(x) exp(-rate |x|^2) with C of polynomial growth.

    `exact` marks fields that are literally (slowly-varying factor) times
    exp(-rate |x|^2), so a rule built for that Gaussian rate integrates them
    at full precision.
    """

    kind: str = "none"  # "gaussian" | "polynomial" | "none"
    rate: float = 0.0
    exact: bool = False

    @property
    def is_gaussian(self) -> bool:
        return self.kind == "gaussian" and self.rate > 0


NO_DECAY = Decay()


@dataclass(frozen=True)
class ScalarField:
    name: str
    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    decay: Decay = NO_DECAY
    even_axes: frozenset[int] = field(default_factory=frozenset)
    odd_axes: frozenset[int] = field(default_factory=frozenset)
    radial: bool = False

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.value(pts)

    def with_name(self, name: str) -> "ScalarField":
        return replace(self, name=name)


def _batch(pts) -> np.ndarray:
    arr = np.asarray(pts, dtype=float)
    return arr[None, :] if arr.ndim == 1 else arr


# ---------------------------------------------------------------------------
# library
# ---------------------------------------------------------------------------

def constant(c: float, dim: int) -> ScalarField:
    return ScalarField(
        name=f"constant({c})", dim=dim,
        value=lambda x: np.full(len(_batch(x)), float(c)),
        grad=lambda x: np.zeros((len(_batch(x)), dim)),
        hess=lambda x: np.zeros((len(_batch(x)), dim, dim)),
        decay=Decay("polynomial"),
        even_axes=frozenset(range(dim)), radial=True)


def affine(a, b: float, dim: int | None = None) -> ScalarField:
    a = np.asarray(a, dtype=float)
    dim = len(a) if dim is None else dim
    if len(a) != dim:
        raise ValueError(f"affine slope has length {len(a)}, need {dim}")
    even = frozenset(i for i in range(dim) if a[i] == 0.0)
    odd = frozenset()
    if b == 0.0 and np.count_nonzero(a) == 1:
        odd = frozenset({int(np.nonzero(a)[0][0])})
    return ScalarField(
        name=f"affine({a.tolist()},{b})", dim=dim,
        value=lambda x: _batch(x) @ a + b,
        grad=lambda x: np.tile(a, (len(_batch(x)), 1)),
        hess=lambda x: np.zeros((len(_batch(x)), dim, dim)),
        decay=Decay("polynomial"),
        even_axes=even, odd_axes=odd)


def exp_axis(b: float, axis: int, dim: int) -> ScalarField:
    def val(x):
        return np.exp(b * _batch(x)[:, axis])

    def grad(x):
        pts = _batch(x)
        out = np.zeros((len(pts), dim))
        out[:, axis] = b * np.exp(b * pts[:, axis])
        return out

    def hess(x):
        pts = _batch(x)
        out = np.zeros((len(pts), dim, dim))
        out[:, axis, axis] = b * b * np.exp(b * pts[:, axis])
        return out

    return ScalarField(
        name=f"exp_axis(b={b},axis={axis})", dim=dim,
        value=val, grad=grad, hess=hess, decay=NO_DECAY,
        even_axes=frozenset(i for i in range(dim) if i != axis))


def hermite_witness(axis: int, dim: int) -> ScalarField:
    """f(x) = x_k exp(-|x|^2/2), the sharpness witness of the HUP stability."""

    def val(x):
        pts = _batch(x)
        return pts[:, axis] * np.exp(-0.5 * np.sum(pts ** 2, axis=1))

    def grad(x):
        pts = _batch(x)
        g = np.exp(-0.5 * np.sum(pts ** 2, axis=1))
        out = -pts * (pts[:, axis] * g)[:, None]
        out[:, axis] += g
        return out

    def hess(x):
        pts = _batch(x)
        n = pts.shape[1]
        g = np.exp(-0.5 * np.sum(pts ** 2, axis=1))
        xk = pts[:, axis]
        out = (pts[:, :, None] * pts[:, None, :]) * (xk * g)[:, None, None]
        out -= np.eye(n)[None, :, :] * (xk * g)[:, None, None]
        out[:, axis, :] -= pts * g[:, None]
        out[:, :, axis] -= pts * g[:, None]
        return out

    return ScalarField(
        name=f"hermite_witness(axis={axis})", dim=dim,
        value=val, grad=grad, hess=hess,
        decay=Decay("gaussian", rate=0.5, exact=True),
        even_axes=frozenset(i for i in range(dim) if i != axis),
        odd_axes=frozenset({axis}))


def gaussian(amplitude: float, lam: float, dim: int) -> ScalarField:
    """f(x) = A exp(-|x|^2 / (2 lam^2)); member of the HUP optimizer family."""
    c = 1.0 / (lam * lam)

    def val(x):
        pts = _batch(x)
        return amplitude * np.exp(-0.5 * c * np.sum(pts ** 2, axis=1))

    def grad(x):
        pts = _batch(x)
        return -c * pts * val(pts)[:, None]

    def hess(x):
        pts = _batch(x)
        n = pts.shape[1]
        f = val(pts)
        outer = pts[:, :, None] * pts[:, None, :]
        return (c * c * outer - c * np.eye(n)[None, :, :]) * f[:, None, None]

    return ScalarField(
        name=f"gaussian(A={amplitude},lam={lam})", dim=dim,
        value=val, grad=grad, hess=hess,
        decay=Decay("gaussian", rate=0.5 * c, exact=True),
        even_axes=frozenset(range(dim)), radial=True)


def gaussian_quarter(amplitude: float, dim: int) -> ScalarField:
    """f(x) = A exp(-|x|^2/4), the Euclidean log-Sobolev extremizer."""
    f = gaussian(amplitude, np.sqrt(2.0), dim)
    return f.with_name(f"gaussian_quarter(A={amplitude})")


def poly_gauss(seed: int, dim: int, degree: int = 3,
               even_axes: frozenset[int] = frozenset()) -> ScalarField:
    """Seeded random polynomial times a Gaussian bump of seeded width."""
    rng = np.random.default_rng(seed)
    expo = exponent_table(dim, degree, even_axes=frozenset(even_axes))
    coeffs = rng.standard_normal(len(expo)) / (1.0 + expo.sum(axis=1))
    tau = float(rng.uniform(0.8, 1.3))
    poly = PolyND(expo, coeffs)
    c = 1.0 / (tau * tau)

    def bump(pts):
        # einsum forms |x|^2 without the (N, n) temporary of pts ** 2
        return np.exp(-0.5 * c * np.einsum("ij,ij->i", pts, pts))

    def val(x):
        pts = _batch(x)
        return poly.value(pts) * bump(pts)

    # p and its derivatives come axis-first from one table, one row per
    # derivative; with e the bump, w = c x and s = e grad p - w p e / 2,
    # hess(p e) = e hess p - (w s^T + s w^T) - c p e I
    def grad(x):
        pts = _batch(x)
        d = poly.derivatives(pts, 1)
        return ((d[1:] - c * pts.T * d[0]) * bump(pts)).T

    def hess(x):
        pts = _batch(x)
        n = pts.shape[1]
        e = bump(pts)
        d = poly.derivatives(pts, 2)
        pe = d[0] * e
        w = c * pts.T
        s = d[1:1 + n] * e - 0.5 * w * pe
        h = d[1 + n:].reshape(n, n, -1)
        h *= e
        t = w[:, None] * s[None, :]
        h -= t + np.swapaxes(t, 0, 1)
        diag = np.arange(n)
        h[diag, diag] -= c * pe
        return h.transpose(2, 0, 1)

    return ScalarField(
        name=f"poly_gauss(seed={seed})", dim=dim,
        value=val, grad=grad, hess=hess,
        decay=Decay("gaussian", rate=0.5 * c, exact=True),
        even_axes=frozenset(even_axes))


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

def scaled(f: ScalarField, c: float) -> ScalarField:
    return ScalarField(
        name=f"{c}*{f.name}", dim=f.dim,
        value=lambda x: c * f.value(x),
        grad=lambda x: c * f.grad(x),
        hess=lambda x: c * f.hess(x),
        decay=f.decay, even_axes=f.even_axes,
        odd_axes=f.odd_axes if c != 0 else frozenset(), radial=f.radial)


def shifted(f: ScalarField, c: float) -> ScalarField:
    dim = f.dim
    decay = Decay("polynomial") if c != 0 else f.decay
    return ScalarField(
        name=f"{f.name}+{c}", dim=dim,
        value=lambda x: f.value(x) + c,
        grad=f.grad, hess=f.hess, decay=decay,
        even_axes=f.even_axes,
        odd_axes=f.odd_axes if c == 0 else frozenset(), radial=f.radial)


def added(f: ScalarField, g: ScalarField) -> ScalarField:
    rate = min(f.decay.rate, g.decay.rate)
    kind = "gaussian" if f.decay.is_gaussian and g.decay.is_gaussian else "none"
    if f.decay.kind == "polynomial" and g.decay.kind == "polynomial":
        kind = "polynomial"
    return ScalarField(
        name=f"({f.name})+({g.name})", dim=f.dim,
        value=lambda x: f.value(x) + g.value(x),
        grad=lambda x: f.grad(x) + g.grad(x),
        hess=lambda x: f.hess(x) + g.hess(x),
        decay=Decay(kind, rate, exact=False),
        even_axes=f.even_axes & g.even_axes,
        odd_axes=f.odd_axes & g.odd_axes)


def product(f: ScalarField, g: ScalarField) -> ScalarField:
    def hess(x):
        pts = _batch(x)
        fg = f.grad(pts)[:, :, None] * g.grad(pts)[:, None, :]
        return (f.hess(pts) * g.value(pts)[:, None, None]
                + g.hess(pts) * f.value(pts)[:, None, None]
                + fg + np.swapaxes(fg, 1, 2))

    rate = f.decay.rate + g.decay.rate
    kind = "gaussian" if rate > 0 else (
        "polynomial" if "none" not in (f.decay.kind, g.decay.kind) else "none")
    even = (f.even_axes & g.even_axes) | (f.odd_axes & g.odd_axes)
    odd = (f.odd_axes & g.even_axes) | (f.even_axes & g.odd_axes)
    return ScalarField(
        name=f"({f.name})*({g.name})", dim=f.dim,
        value=lambda x: f.value(x) * g.value(x),
        grad=lambda x: f.grad(x) * g.value(x)[:, None] + g.grad(x) * f.value(x)[:, None],
        hess=hess,
        decay=Decay(kind, rate, exact=f.decay.exact and g.decay.exact),
        even_axes=even, odd_axes=odd,
        radial=f.radial and g.radial)


def squared(f: ScalarField) -> ScalarField:
    sq = product(f, f)
    return sq.with_name(f"({f.name})^2")


def one_plus(eps: float, u: ScalarField) -> ScalarField:
    """Perturbation family member 1 + eps*u used in the sharpness sweeps."""
    g = shifted(scaled(u, eps), 1.0)
    return g.with_name(f"1+{eps}*{u.name}")


def dilated(f: ScalarField, s: float) -> ScalarField:
    """x -> f(x/s)."""
    inv = 1.0 / s

    def val(x):
        return f.value(_batch(x) * inv)

    def grad(x):
        return inv * f.grad(_batch(x) * inv)

    def hess(x):
        return inv * inv * f.hess(_batch(x) * inv)

    return ScalarField(
        name=f"{f.name}(x/{s})", dim=f.dim, value=val, grad=grad, hess=hess,
        decay=Decay(f.decay.kind, f.decay.rate * inv * inv, f.decay.exact),
        even_axes=f.even_axes, odd_axes=f.odd_axes, radial=f.radial)


def mass_dilated(f: ScalarField, lam: float, n_plus_alpha: float) -> ScalarField:
    """f_lam(x) = lam^((n+alpha)/2) f(lam x); preserves the weighted L2 norm."""
    amp = lam ** (0.5 * n_plus_alpha)

    def val(x):
        return amp * f.value(_batch(x) * lam)

    def grad(x):
        return amp * lam * f.grad(_batch(x) * lam)

    def hess(x):
        return amp * lam * lam * f.hess(_batch(x) * lam)

    return ScalarField(
        name=f"mass_dilated({f.name},{lam})", dim=f.dim,
        value=val, grad=grad, hess=hess,
        decay=Decay(f.decay.kind, f.decay.rate * lam * lam, f.decay.exact),
        even_axes=f.even_axes, odd_axes=f.odd_axes, radial=f.radial)


# ---------------------------------------------------------------------------
# finite-difference consistency checks
# ---------------------------------------------------------------------------

def fd_gradient_error(f: ScalarField, pts: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error of the analytic gradient vs centered differences."""
    pts = _batch(pts)
    g = f.grad(pts)
    worst = 0.0
    for ax in range(f.dim):
        step = np.zeros(f.dim)
        step[ax] = h
        fd = (f.value(pts + step) - f.value(pts - step)) / (2 * h)
        scale = np.maximum(np.abs(g[:, ax]), 1.0)
        worst = max(worst, float(np.max(np.abs(fd - g[:, ax]) / scale)))
    return worst


def fd_hessian_error(f: ScalarField, pts: np.ndarray, h: float = 1e-4) -> float:
    """Max relative error of the analytic hessian vs centered gradient differences."""
    pts = _batch(pts)
    hess = f.hess(pts)
    worst = 0.0
    for ax in range(f.dim):
        step = np.zeros(f.dim)
        step[ax] = h
        fd = (f.grad(pts + step) - f.grad(pts - step)) / (2 * h)
        scale = np.maximum(np.abs(hess[:, ax, :]), 1.0)
        worst = max(worst, float(np.max(np.abs(fd - hess[:, ax, :]) / scale)))
    return worst
