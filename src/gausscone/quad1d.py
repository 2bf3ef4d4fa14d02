"""One-dimensional generalized Gauss-Hermite rules.

Factors integrate exactly against the densities

    half line:  t^a e^(-t^2/2) on (0, inf)
    full line: |t|^a e^(-t^2/2) on (-inf, inf)

up to polynomial degree 2*order - 1.  Recurrence coefficients come from the
Gamma-function closed form of the moments: the full-line (even) case has a
known closed recurrence, the half-line case runs the Chebyshev moment
algorithm in mpmath working precision, which is the only numerically hazardous
step of rule construction.  Nodes and weights are then a standard
Golub-Welsch tridiagonal eigendecomposition.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.linalg import eigh_tridiagonal

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


def _golub_welsch(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    nodes, vecs = eigh_tridiagonal(alpha, np.sqrt(beta[1:]))
    weights = beta[0] * vecs[0, :] ** 2
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
