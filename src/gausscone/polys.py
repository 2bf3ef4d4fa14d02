"""Dense multivariate polynomials over explicit exponent tables.

Used by the random polynomial fields; the Galerkin basis of `spectral` takes
its exponent table from here and evaluates tensor products of orthonormal
polynomials from their recurrences instead of monomials.  Exponent tables are
integer arrays of shape (n_terms, dim); evaluation is vectorized over point
batches.

`monomial_table` fills the (T, N) values of every monomial of total degree
<= d at N points with one multiply per monomial (each but the constant
extends a parent of one degree less by one axis); `monomial_index` locates
multi-indices in it.  The moment tables of `measures` sum it against rules.

A `PolyND` writes p, each d_a p and each d_a d_b p as coefficient rows on
the table of its degree (closed under differentiation), stacked into one
matrix of shape (1 + n + n^2, T).  A call fills the table once and
multiplies it by the rows of p, of the gradient and of the Hessian, one
product per order, so a lower order's rows equal a higher order's bit for
bit.  The row of the Laplacian, the sum of the diagonal Hessian rows, can
follow any order's rows.  A field that needs p with its gradient, or with
its gradient and Hessian or Laplacian, takes them all from one
`derivatives` call.
"""

from __future__ import annotations

from functools import lru_cache

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


@lru_cache(maxsize=None)
def _layout(dim: int, degree: int) -> tuple[np.ndarray, ...]:
    """Base-(degree + 1) keys of exponent_table(dim, degree) and their sorter,
    which locate a multi-index; for each monomial k but the constant, the
    parent[k] of one degree less (it precedes k) and the axis[k] extending it."""
    table = exponent_table(dim, degree)
    keys = table @ (degree + 1) ** np.arange(dim)
    order = np.argsort(keys)
    axis = np.argmax(table > 0, axis=1)
    parent = order[np.searchsorted(keys, keys - (degree + 1) ** axis, sorter=order)]
    return keys, order, parent, axis


def monomial_index(expo: np.ndarray, degree: int) -> np.ndarray:
    """Rows of exponent_table(n, degree) holding the multi-indices expo
    (..., n), each of total degree <= degree."""
    expo = np.asarray(expo, dtype=np.int64)
    keys, order, _, _ = _layout(expo.shape[-1], degree)
    radix = (degree + 1) ** np.arange(expo.shape[-1])
    return order[np.searchsorted(keys, expo @ radix, sorter=order)]


def monomial_table(points: np.ndarray, degree: int) -> np.ndarray:
    """x^e at the (N, n) points for every row e of exponent_table(n, degree),
    shape (T, N): one multiply per monomial."""
    coords = np.asarray(points, dtype=float).T
    _, _, parent, axis = _layout(coords.shape[0], degree)
    out = np.empty((len(parent), coords.shape[1]))
    out[0] = 1.0
    for k in range(1, len(out)):
        np.multiply(out[parent[k]], coords[axis[k]], out=out[k])
    return out


class PolyND:
    """Polynomial sum_k coeffs[k] * x^expo[k], with analytic grad and hessian."""

    def __init__(self, expo: np.ndarray, coeffs: np.ndarray):
        self.expo = expo = np.asarray(expo, dtype=np.int64)
        self.coeffs = np.asarray(coeffs, dtype=float)
        if expo.shape[0] != self.coeffs.shape[0]:
            raise ValueError("exponent/coefficient length mismatch")
        self.dim = n = expo.shape[1]
        self._degree = int(expo.sum(axis=1).max()) if len(expo) else 0
        self._rows = np.zeros((1 + n + n * n, len(_layout(n, self._degree)[0])))
        # rows p, d_a p, d_a d_b p as term exponents with integer factors, in
        # term order; a factor multiplies the coefficient only once formed,
        # so rows (a, b) and (b, a) agree bit for bit
        eye = np.eye(n, dtype=np.int64)
        grads = [expo - eye[a] for a in range(n)]
        terms = np.concatenate(
            [expo] + grads + [g - eye[b] for g in grads for b in range(n)])
        factor = np.concatenate(
            [np.ones(len(expo), dtype=np.int64)] + [expo[:, a] for a in range(n)]
            + [expo[:, a] * grads[a][:, b] for a in range(n) for b in range(n)])
        row = np.repeat(np.arange(len(self._rows)), len(expo))
        keep = factor != 0  # a zero factor marks a vanishing derivative
        np.add.at(self._rows, (row[keep], monomial_index(terms[keep], self._degree)),
                  factor[keep] * np.tile(self.coeffs, len(self._rows))[keep])
        # Lap p: the trace of the Hessian rows, one more row on the same table
        self._laplacian = self._rows[1 + n::n + 1].sum(axis=0, keepdims=True)

    def _table(self, points: np.ndarray) -> np.ndarray:
        """Monomial values on the full table, shape (T, N)."""
        return monomial_table(points, self._degree)

    def derivatives(self, points: np.ndarray, order: int,
                    laplacian: bool = False) -> np.ndarray:
        """Rows p, then d_a p (order >= 1), then d_a d_b p at row
        1 + n + a n + b (order 2), evaluated at the (N, n) points: shape
        (1, N), (1 + n, N) or (1 + n + n^2, N); with `laplacian`, one more
        row, Lap p, last."""
        n = self.dim
        parts = [self._rows[:1], self._rows[1:1 + n], self._rows[1 + n:]][:order + 1]
        if laplacian:
            parts.append(self._laplacian)
        table = self._table(points)
        out = np.empty((sum(len(rows) for rows in parts), table.shape[1]))
        # one product per order, so a lower order's rows are a prefix of a
        # higher order's bit for bit; a one-row table's is matmul's, +0 too
        product = ((lambda a, b, out: np.add(a * b, 0.0, out=out))
                   if len(table) == 1 else np.matmul)
        start = 0
        for rows in parts:
            product(rows, table, out=out[start:start + len(rows)])
            start += len(rows)
        return out

    def value(self, points: np.ndarray) -> np.ndarray:
        return self.derivatives(points, 0)[0]

    def grad(self, points: np.ndarray) -> np.ndarray:
        return self.derivatives(points, 1)[1:].T

    def hess(self, points: np.ndarray) -> np.ndarray:
        n = self.dim
        return self.derivatives(points, 2)[1 + n:].reshape(n, n, -1).transpose(2, 0, 1)
