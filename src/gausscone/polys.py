"""Dense multivariate polynomials over explicit exponent tables.

Used by the random polynomial fields; the Galerkin basis of `spectral` takes
its exponent table from here and evaluates tensor products of orthonormal
polynomials from their recurrences instead of monomials.  Exponent tables are
integer arrays of shape (n_terms, dim); evaluation is vectorized over point
batches.
"""

from __future__ import annotations

import numpy as np


def exponent_table(dim: int, max_degree: int,
                   even_axes: frozenset[int] = frozenset()) -> np.ndarray:
    """All multi-indices with total degree <= max_degree, even on `even_axes`.

    Ordered by (total degree, reversed lexicographic) so the constant comes
    first and the ordering is deterministic.
    """
    idx: list[tuple[int, ...]] = []

    def rec(prefix: list[int], axis: int, budget: int):
        if axis == dim:
            idx.append(tuple(prefix))
            return
        step = 2 if axis in even_axes else 1
        for e in range(0, budget + 1, step):
            rec(prefix + [e], axis + 1, budget - e)

    rec([], 0, max_degree)
    idx.sort(key=lambda e: (sum(e), e))
    return np.array(idx, dtype=np.int64)


def monomial_values(points: np.ndarray, expo: np.ndarray) -> np.ndarray:
    """Matrix of monomial values, shape (n_points, n_terms)."""
    pts = np.asarray(points, dtype=float)
    out = np.ones((pts.shape[0], expo.shape[0]))
    for ax in range(pts.shape[1]):
        emax = int(expo[:, ax].max()) if expo.shape[0] else 0
        if emax == 0:
            continue
        # cumulative powers of the axis coordinate, reused across terms
        powers = np.empty((pts.shape[0], emax + 1))
        powers[:, 0] = 1.0
        for e in range(1, emax + 1):
            powers[:, e] = powers[:, e - 1] * pts[:, ax]
        out *= powers[:, expo[:, ax]]
    return out


def monomial_axis_derivative(points: np.ndarray, expo: np.ndarray, axis: int,
                             order: int = 1) -> np.ndarray:
    """Values of d^order/dx_axis^order applied to each monomial."""
    expo = np.asarray(expo)
    coeff = np.ones(expo.shape[0])
    shifted = expo.copy()
    for _ in range(order):
        coeff = coeff * shifted[:, axis]
        shifted[:, axis] = np.maximum(shifted[:, axis] - 1, 0)
    vals = monomial_values(points, shifted)
    return vals * coeff[None, :]


class PolyND:
    """Polynomial sum_k coeffs[k] * x^expo[k], with analytic grad and hessian."""

    def __init__(self, expo: np.ndarray, coeffs: np.ndarray):
        self.expo = np.asarray(expo, dtype=np.int64)
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.expo.shape[0] != self.coeffs.shape[0]:
            raise ValueError("exponent/coefficient length mismatch")
        self.dim = self.expo.shape[1]

    def value(self, points: np.ndarray) -> np.ndarray:
        return monomial_values(points, self.expo) @ self.coeffs

    def grad(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.empty((pts.shape[0], self.dim))
        for ax in range(self.dim):
            out[:, ax] = monomial_axis_derivative(pts, self.expo, ax) @ self.coeffs
        return out

    def hess(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        n = self.dim
        out = np.empty((pts.shape[0], n, n))
        for i in range(n):
            out[:, i, i] = (monomial_axis_derivative(pts, self.expo, i, order=2)
                            @ self.coeffs)
            for j in range(i + 1, n):
                di = self.expo.copy()
                ci = self.coeffs * di[:, i]
                di[:, i] = np.maximum(di[:, i] - 1, 0)
                mixed = monomial_axis_derivative(pts, di, j) @ ci
                out[:, i, j] = out[:, j, i] = mixed
        return out

    def degree(self) -> int:
        live = np.abs(self.coeffs) > 0
        return int(self.expo[live].sum(axis=1).max()) if live.any() else 0
