"""Dense multivariate polynomials over explicit exponent tables.

Used by the random polynomial fields; the Galerkin basis of `spectral` takes
its exponent table from here and evaluates tensor products of orthonormal
polynomials from their recurrences instead of monomials.  Exponent tables are
integer arrays of shape (n_terms, dim); evaluation is vectorized over point
batches.

A `PolyND` evaluates its value, gradient and Hessian from one monomial table.
At construction it lays out every monomial of total degree <= its degree
(a table closed under differentiation) and writes p, each d_a p and each
d_a d_b p as coefficient rows on that table, stacked into one matrix of
shape (1 + n + n^2, T).  Each monomial but the constant extends a parent of
one degree less by one axis, so a call fills the (T, N) table with one
multiply per monomial, then multiplies it by the rows of p, of the gradient
and of the Hessian, one product per order, so a lower order's rows equal a
higher order's bit for bit.  A field that needs p with its gradient, or with
its gradient and Hessian, takes them all from one `derivatives` call.
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


class PolyND:
    """Polynomial sum_k coeffs[k] * x^expo[k], with analytic grad and hessian."""

    def __init__(self, expo: np.ndarray, coeffs: np.ndarray):
        self.expo = np.asarray(expo, dtype=np.int64)
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.expo.shape[0] != self.coeffs.shape[0]:
            raise ValueError("exponent/coefficient length mismatch")
        self.dim = n = self.expo.shape[1]
        degree = int(self.expo.sum(axis=1).max()) if len(self.expo) else 0
        table = exponent_table(n, degree)
        index = {tuple(e): k for k, e in enumerate(table.tolist())}
        # monomial k = monomial parent[k] times x_axis[k]; the parent has one
        # degree less, so it precedes k in the degree-sorted table
        self._axis = np.zeros(len(table), dtype=np.int64)
        self._parent = np.zeros(len(table), dtype=np.int64)
        for k, e in enumerate(table.tolist()[1:], start=1):
            ax = next(a for a, ea in enumerate(e) if ea)
            e[ax] -= 1
            self._axis[k], self._parent[k] = ax, index[tuple(e)]
        self._rows = np.zeros((1 + n + n * n, len(table)))
        for e, c in zip(self.expo.tolist(), self.coeffs.tolist()):
            self._rows[0, index[tuple(e)]] += c
            for a in range(n):
                if not e[a]:
                    continue
                da = list(e)
                da[a] -= 1
                self._rows[1 + a, index[tuple(da)]] += e[a] * c
                for b in range(n):
                    if not da[b]:
                        continue
                    dab = list(da)
                    dab[b] -= 1
                    # integer factor first: the (a, b) and (b, a) rows agree
                    # bit for bit
                    self._rows[1 + n + a * n + b, index[tuple(dab)]] += (
                        e[a] * da[b]) * c

    def _table(self, points: np.ndarray) -> np.ndarray:
        """Monomial values on the full table, shape (T, N)."""
        coords = np.asarray(points, dtype=float).T
        out = np.empty((len(self._axis), coords.shape[1]))
        out[0] = 1.0
        for k in range(1, len(out)):
            np.multiply(out[self._parent[k]], coords[self._axis[k]], out=out[k])
        return out

    def derivatives(self, points: np.ndarray, order: int) -> np.ndarray:
        """Rows p, then d_a p (order >= 1), then d_a d_b p at row
        1 + n + a n + b (order 2), evaluated at the (N, n) points: shape
        (1, N), (1 + n, N) or (1 + n + n^2, N)."""
        n = self.dim
        table = self._table(points)
        out = np.empty(((1, 1 + n, 1 + n + n * n)[order], table.shape[1]))
        # one product per order, so a lower order's rows are a prefix of a
        # higher order's bit for bit
        for rows in (slice(0, 1), slice(1, 1 + n), slice(1 + n, None))[:order + 1]:
            np.matmul(self._rows[rows], table, out=out[rows])
        return out

    def value(self, points: np.ndarray) -> np.ndarray:
        return self.derivatives(points, 0)[0]

    def grad(self, points: np.ndarray) -> np.ndarray:
        return self.derivatives(points, 1)[1:].T

    def hess(self, points: np.ndarray) -> np.ndarray:
        n = self.dim
        return self.derivatives(points, 2)[1 + n:].reshape(n, n, -1).transpose(2, 0, 1)
