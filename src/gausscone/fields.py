"""Test fields: the operational stand-in for smooth functions with Neumann
boundary behavior on the cone.

Each field carries one exact analytic derivative callable, its jet:
`jet(pts, order)` takes an (N, n) point batch and order 0, 1 or 2 and
returns (value,), (value, grad) or (value, grad, hess) with shapes (N,),
(N, n) and (N, n, n).  Like the nodes of a rule, grad and hess are stored
axis-first, as the transposed views of (n, N) and (n, n, N) buffers, and a
jet takes a batch in either layout to the same values.  A jet shares its
work across orders (a Gaussian bump, an exponential, a monomial table), and
a lower order is a prefix of a higher one bit for bit: jet(pts, 2)[:k + 1]
equals jet(pts, k).  The `value`, `grad` and `hess` methods and calling the
field index one jet; they also accept a single point of shape (n,), which
they treat as a batch of one.

A field also carries a decay envelope used by the unnormalized-measure
integration contract, and parity tags.  Parity tags are what admit a field
into orthant-cone checks (even in every constrained axis means the normal
derivative vanishes identically) and what lets odd integrals short-circuit
to exact zero in the sharpness computations.

Every library field but `exp_axis` is exactly poly(x) exp(-rate |x|^2) with
rate >= 0 (the constants and affine fields at rate 0, the Gaussians, the
Hermite witness and the seeded polynomial fields), and is built from that
structure alone: one jet, the decay rate and the parity tags all come from
its `PolyGauss`, which it carries as `poly_gauss` and from which the
HUP-stability distances take every integral and integration by parts its
Laplacian.  Scalings and dilations carry the structure, other combinators
drop it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .polys import PolyND, exponent_table


@dataclass(frozen=True)
class Decay:
    """Envelope |f(x)| <= C(x) exp(-rate |x|^2) with C of polynomial growth."""

    rate: float = 0.0

    @property
    def is_gaussian(self) -> bool:
        return self.rate > 0


NO_DECAY = Decay()


@dataclass(frozen=True)
class PolyGauss:
    """The field is exactly poly(x) exp(-rate |x|^2), with rate >= 0."""

    poly: PolyND
    rate: float

    def rescaled(self, amp: float, s: float) -> "PolyGauss":
        """The structure of x -> amp f(s x): coefficient c_g times amp s^|g|."""
        expo = self.poly.expo
        coeffs = amp * s ** expo.sum(axis=1) * self.poly.coeffs
        return PolyGauss(PolyND(expo, coeffs), self.rate * s * s)

    # p and its derivatives come axis-first from one table, one row per
    # derivative; with e the bump, w = c x, c = 2 rate, grad(p e) =
    # e grad p - w p e, and with s = e grad p - w p e / 2,
    # hess(p e) = e hess p - (w s^T + s w^T) - c p e I
    def _bump(self, x: np.ndarray) -> np.ndarray:
        # einsum forms |x|^2 without the (N, n) temporary of x ** 2
        return np.exp(-self.rate * np.einsum("ij,ij->i", x, x))

    def _first(self, x: np.ndarray, d: np.ndarray):
        """The bump e, p e, w and the (n, N) rows of grad(p e) at the points
        from the rows d of p and grad p there."""
        e = self._bump(x)
        w = 2.0 * self.rate * x.T
        return e, d[0] * e, w, (d[1:1 + self.poly.dim] - w * d[0]) * e

    def jet(self, x: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        """The field's jet of `order` at the (N, n) points."""
        dim = self.poly.dim
        d = self.poly.derivatives(x, order)
        if order == 0:
            return (d[0] * self._bump(x),)
        e, pe, w, grad = self._first(x, d)
        if order == 1:
            return pe, grad.T
        s = d[1:1 + dim] * e - 0.5 * w * pe
        h = d[1 + dim:].reshape(dim, dim, -1)
        h *= e
        # one axis pair at a time, so no (n, n, N) temporary is formed
        c = 2.0 * self.rate
        for a in range(dim):
            h[a, a] -= 2.0 * w[a] * s[a]
            h[a, a] -= c * pe
            for b in range(a):
                v = w[a] * s[b] + s[a] * w[b]
                h[a, b] -= v
                h[b, a] -= v
        return pe, grad.T, h.transpose(2, 0, 1)

    def value_grad_laplacian(self, x: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (N,) values and (N, n) gradients, as `jet(x, 1)` gives them,
        and the (N,) Laplacian of the field at the (N, n) points, from one
        table without the Hessian:

            Lap(p e) = e (Lap p - 4 rate x.grad p
                          + (4 rate^2 |x|^2 - 2 n rate) p)."""
        dim, r = self.poly.dim, self.rate
        d = self.poly.derivatives(x, 1, laplacian=True)
        e, pe, w, grad = self._first(x, d)
        # w = 2 rate x, so 2 w.grad p = 4 rate x.grad p, w.w = 4 rate^2 |x|^2
        wd = np.einsum("ij,ij->j", w, d[1:1 + dim])
        ww = np.einsum("ij,ij->j", w, w)
        return pe, grad.T, (d[-1] - 2.0 * wd + (ww - 2.0 * dim * r) * d[0]) * e


@dataclass(frozen=True)
class ScalarField:
    name: str
    dim: int
    jet: Callable[[np.ndarray, int], tuple[np.ndarray, ...]]
    decay: Decay = NO_DECAY
    even_axes: frozenset[int] = field(default_factory=frozenset)
    odd_axes: frozenset[int] = field(default_factory=frozenset)
    poly_gauss: PolyGauss | None = None

    def value(self, pts) -> np.ndarray:
        return self.jet(_batch(pts), 0)[0]

    def grad(self, pts) -> np.ndarray:
        return self.jet(_batch(pts), 1)[1]

    def hess(self, pts) -> np.ndarray:
        return self.jet(_batch(pts), 2)[2]

    __call__ = value

    def with_name(self, name: str) -> "ScalarField":
        return replace(self, name=name)


def _batch(pts) -> np.ndarray:
    arr = np.asarray(pts, dtype=float)
    return arr[None, :] if arr.ndim == 1 else arr


# ---------------------------------------------------------------------------
# library
# ---------------------------------------------------------------------------

def _structured(name: str, pg: PolyGauss) -> ScalarField:
    """The field pg.poly(x) exp(-pg.rate |x|^2).  It decays at pg.rate, and
    is even (odd) on the axes where every nonzero term has an even (odd)
    exponent; the zero polynomial is even on every axis."""
    poly, rate = pg.poly, pg.rate
    dim = poly.dim
    odd_expo = poly.expo[poly.coeffs != 0] % 2 == 1
    even = frozenset(a for a in range(dim) if not odd_expo[:, a].any())
    odd = frozenset(a for a in range(dim) if len(odd_expo) and odd_expo[:, a].all())
    return ScalarField(name=name, dim=dim, jet=pg.jet, decay=Decay(rate),
                       even_axes=even, odd_axes=odd, poly_gauss=pg)


def _affine_expo(dim: int) -> np.ndarray:
    """Exponent rows of 1, x_1, ..., x_n."""
    return np.eye(dim + 1, dim, k=-1, dtype=np.int64)


def constant(c: float, dim: int) -> ScalarField:
    return _structured(f"constant({c})",
                       PolyGauss(PolyND(_affine_expo(dim)[:1], [float(c)]), 0.0))


def affine(a, b: float, dim: int | None = None) -> ScalarField:
    a = np.asarray(a, dtype=float)
    dim = len(a) if dim is None else dim
    if len(a) != dim:
        raise ValueError(f"affine slope has length {len(a)}, need {dim}")
    poly = PolyND(_affine_expo(dim), [float(b), *a])
    return _structured(f"affine({a.tolist()},{b})", PolyGauss(poly, 0.0))


def exp_axis(b: float, axis: int, dim: int) -> ScalarField:
    def jet(x, order):
        e = np.exp(b * x[:, axis])
        out = (e, np.zeros((dim, len(x))).T,
               np.zeros((dim, dim, len(x))).transpose(2, 0, 1))[:order + 1]
        if order >= 1:
            out[1][:, axis] = b * e
        if order == 2:
            out[2][:, axis, axis] = b * b * e
        return out

    return ScalarField(
        name=f"exp_axis(b={b},axis={axis})", dim=dim, jet=jet, decay=NO_DECAY,
        even_axes=frozenset(i for i in range(dim) if i != axis))


def hermite_witness(axis: int, dim: int) -> ScalarField:
    """f(x) = x_k exp(-|x|^2/2), the sharpness witness of the HUP stability."""
    poly = PolyND(_affine_expo(dim)[[axis + 1]], [1.0])
    return _structured(f"hermite_witness(axis={axis})", PolyGauss(poly, 0.5))


def gaussian(amplitude: float, lam: float, dim: int) -> ScalarField:
    """f(x) = A exp(-|x|^2 / (2 lam^2)); member of the HUP optimizer family."""
    poly = PolyND(_affine_expo(dim)[:1], [amplitude])
    return _structured(f"gaussian(A={amplitude},lam={lam})",
                       PolyGauss(poly, 0.5 / (lam * lam)))


def gaussian_quarter(amplitude: float, dim: int) -> ScalarField:
    """f(x) = A exp(-|x|^2/4), the Euclidean log-Sobolev extremizer."""
    poly = PolyND(_affine_expo(dim)[:1], [amplitude])
    return _structured(f"gaussian_quarter(A={amplitude})", PolyGauss(poly, 0.25))


def poly_gauss(seed: int, dim: int, degree: int = 3,
               even_axes: frozenset[int] = frozenset()) -> ScalarField:
    """Seeded random polynomial times a Gaussian bump of seeded width."""
    rng = np.random.default_rng(seed)
    expo = exponent_table(dim, degree, even_axes=frozenset(even_axes))
    coeffs = rng.standard_normal(len(expo)) / (1.0 + expo.sum(axis=1))
    tau = float(rng.uniform(0.8, 1.3))
    return _structured(f"poly_gauss(seed={seed})",
                       PolyGauss(PolyND(expo, coeffs), 0.5 / (tau * tau)))


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

def scaled(f: ScalarField, c: float) -> ScalarField:
    """x -> c f(x), the rescaling with s = 1."""
    g = _rescaled(f, f"{c}*{f.name}", 1.0, c)
    return g if c != 0 else replace(g, odd_axes=frozenset())


def shifted(f: ScalarField, c: float) -> ScalarField:
    def jet(x, order):
        value, *derivs = f.jet(x, order)
        return (value + c, *derivs)

    return ScalarField(
        name=f"{f.name}+{c}", dim=f.dim, jet=jet,
        decay=NO_DECAY if c != 0 else f.decay,
        even_axes=f.even_axes,
        odd_axes=f.odd_axes if c == 0 else frozenset())


def _leibniz(fj: tuple, gj: tuple) -> tuple:
    """Jet of the product from the factors' jets of the same order, formed
    axis-first."""
    out = [fj[0] * gj[0]]
    if len(fj) > 1:
        out.append((fj[1].T * gj[0] + gj[1].T * fj[0]).T)
    if len(fj) > 2:
        fg = fj[1].T[:, None] * gj[1].T[None]
        hess = (fj[2].transpose(1, 2, 0) * gj[0] + gj[2].transpose(1, 2, 0) * fj[0]
                + fg + fg.transpose(1, 0, 2))
        out.append(hess.transpose(2, 0, 1))
    return tuple(out)


def product(f: ScalarField, g: ScalarField) -> ScalarField:
    even = (f.even_axes & g.even_axes) | (f.odd_axes & g.odd_axes)
    odd = (f.odd_axes & g.even_axes) | (f.even_axes & g.odd_axes)
    return ScalarField(
        name=f"({f.name})*({g.name})", dim=f.dim,
        jet=lambda x, order: _leibniz(f.jet(x, order), g.jet(x, order)),
        decay=Decay(f.decay.rate + g.decay.rate),
        even_axes=even, odd_axes=odd)


def squared(f: ScalarField) -> ScalarField:
    def jet(x, order):
        fj = f.jet(x, order)
        return _leibniz(fj, fj)

    return replace(product(f, f), name=f"({f.name})^2", jet=jet)


def one_plus(eps: float, u: ScalarField) -> ScalarField:
    """Perturbation family member 1 + eps*u used in the sharpness sweeps."""
    g = shifted(scaled(u, eps), 1.0)
    return g.with_name(f"1+{eps}*{u.name}")


def _rescaled(f: ScalarField, name: str, s: float, amp: float) -> ScalarField:
    """x -> amp f(s x); the k-th derivative carries the factor amp s^k."""
    def jet(x, order):
        out = []
        factor = amp
        for d in f.jet(x * s, order):
            out.append(factor * d)
            factor *= s
        return tuple(out)

    return ScalarField(
        name=name, dim=f.dim, jet=jet, decay=Decay(f.decay.rate * s * s),
        even_axes=f.even_axes, odd_axes=f.odd_axes,
        poly_gauss=f.poly_gauss and f.poly_gauss.rescaled(amp, s))


def mass_dilated(f: ScalarField, lam: float, n_plus_alpha: float) -> ScalarField:
    """f_lam(x) = lam^((n+alpha)/2) f(lam x); preserves the weighted L2 norm."""
    return _rescaled(f, f"mass_dilated({f.name},{lam})", lam,
                     lam ** (0.5 * n_plus_alpha))
