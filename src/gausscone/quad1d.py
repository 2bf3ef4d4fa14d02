"""One-dimensional generalized Gauss-Hermite rules.

Factors integrate exactly against the densities

    half line:  t^a e^(-t^2/2) on (0, inf)
    full line: |t|^a e^(-t^2/2) on (-inf, inf)

up to polynomial degree 2*order - 1.  Recurrence coefficients come from the
Gamma-function closed form of the moments: the full-line (even) case has a
known closed recurrence, the half-line case runs the Chebyshev moment
algorithm in mpmath working precision, which is the only numerically hazardous
step of rule construction.  The nodes are the eigenvalues of the Jacobi
matrix (Golub-Welsch); the weights are the Christoffel numbers
1 / sum_j phat_j(t_k)^2, with the orthonormal polynomials phat_j evaluated by
the same recurrence, so small tail weights are accurate to relative round-off
rather than only relative to the largest weight.

`orthonormal_polys` evaluates those polynomials and their derivatives; the
Galerkin basis of `spectral` is built from them.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp
import numpy as np

from .errors import ResourceError

MAX_ORDER = 200


def gamma_moment(a: float, k: int) -> float:
    """Closed form of the half-line moment integral of t^(a+k) e^(-t^2/2)."""
    with mp.workdps(30):
        am = mp.mpf(a)  # promote before any arithmetic touches the exponent
        return float(mp.power(2, (am + k - 1) / 2) * mp.gamma((am + k + 1) / 2))


def _check_order(order: int):
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > MAX_ORDER:
        raise ResourceError(f"per-axis order {order} exceeds the cap {MAX_ORDER}")


def halfline_recurrence(a: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Three-term recurrence (alpha_k, beta_k) for t^a e^(-t^2/2) on (0, inf).

    Chebyshev algorithm on the exact moments; working precision scales with
    the order because the moment map loses roughly two digits per level.
    """
    _check_order(order)
    dps = 40 + 4 * order
    with mp.workdps(dps):
        # promote the exponent before any arithmetic: computing a + k in
        # double first would poison the moments at ~1e-15 relative, which the
        # moment->recurrence map amplifies beyond repair at this order
        am = mp.mpf(a)
        m = [mp.power(2, (am + k - 1) / 2) * mp.gamma((am + k + 1) / 2)
             for k in range(2 * order)]
        sig_prev = [mp.mpf(0)] * (2 * order)
        sig = list(m)
        alpha = [m[1] / m[0]]
        beta = [m[0]]
        for k in range(1, order):
            sig_new = [mp.mpf(0)] * (2 * order)
            for ell in range(k, 2 * order - k):
                sig_new[ell] = (sig[ell + 1] - alpha[k - 1] * sig[ell]
                                - beta[k - 1] * sig_prev[ell])
            alpha.append(sig_new[k + 1] / sig_new[k] - sig[k] / sig[k - 1])
            beta.append(sig_new[k] / sig[k - 1])
            sig_prev, sig = sig, sig_new
        return (np.array([float(x) for x in alpha]),
                np.array([float(x) for x in beta]))


def fullline_recurrence(a: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Recurrence for the even weight |t|^a e^(-t^2/2) on the full line.

    Closed form: beta_k = k for even k, k + a for odd k (generalized Hermite
    rescaled from e^(-t^2) to e^(-t^2/2)); alpha_k = 0 by symmetry.
    """
    _check_order(order)
    beta = np.empty(order)
    beta[0] = 2.0 * gamma_moment(a, 0)
    for k in range(1, order):
        beta[k] = float(k) if k % 2 == 0 else float(k) + a
    return np.zeros(order), beta


def orthonormal_polys(alpha: np.ndarray, beta: np.ndarray, t: np.ndarray,
                      degree: int, derivatives: int = 0) -> np.ndarray:
    """Orthonormal polynomials of the probability measure with recurrence
    (alpha, beta), and their derivatives, at the points t.

    Returns an array of shape (derivatives + 1, len(t), degree + 1) whose
    [d, :, j] slice is the d-th derivative of p_j, where p_0 = 1 and

        sqrt(beta_(j+1)) p_(j+1) = (t - alpha_j) p_j - sqrt(beta_j) p_(j-1);

    the d-th derivative follows by differentiating the recurrence d times,
    which adds d * p_j^(d-1) to the right-hand side.  Needs
    len(beta) > degree.
    """
    if degree >= len(beta):
        raise ValueError(f"degree {degree} needs {degree + 1} recurrence terms")
    t = np.asarray(t, dtype=float)
    out = np.zeros((derivatives + 1, len(t), degree + 1))
    out[0, :, 0] = 1.0
    root = np.sqrt(beta)
    for j in range(degree):
        for d in range(derivatives + 1):
            nxt = (t - alpha[j]) * out[d, :, j]
            if j:
                nxt -= root[j] * out[d, :, j - 1]
            if d:
                nxt += d * out[d - 1, :, j]
            out[d, :, j + 1] = nxt / root[j + 1]
    return out


def _golub_welsch(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    off = np.sqrt(beta[1:])
    nodes = np.linalg.eigvalsh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
    # Christoffel numbers: beta_0 is the mass, p_j are orthonormal for the
    # measure divided by it
    p = orthonormal_polys(alpha, beta, nodes, len(alpha) - 1)[0]
    weights = beta[0] / np.sum(p * p, axis=1)
    return nodes, weights


@lru_cache(maxsize=256)
def halfline_rule(a: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on (0, inf) for density t^a e^(-t^2/2)."""
    nodes, weights = _golub_welsch(*halfline_recurrence(a, order))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=256)
def fullline_rule(a: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on the full line for density |t|^a e^(-t^2/2)."""
    nodes, weights = _golub_welsch(*fullline_recurrence(a, order))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
