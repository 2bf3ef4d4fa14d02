"""One-dimensional generalized Gauss-Hermite rules.

Factors integrate exactly against the densities

    half line:  t^a e^(-t^2/2) on (0, inf)
    full line: |t|^a e^(-t^2/2) on (-inf, inf)

up to polynomial degree 2*order - 1.  The full-line (even) case has a known
closed recurrence.  The half-line recurrence comes from a discretized
Lanczos procedure in double precision: a Gauss-Jacobi rule for t^a on a
finite interval, reweighted by e^(-t^2/2), is a discrete measure with the
same leading recurrence coefficients to round-off.  Both recurrences take
their mass beta_0 from the Gamma closed form `gamma_moment`.  The nodes are
the eigenvalues of the Jacobi matrix (Golub-Welsch); the weights are the
Christoffel numbers 1 / sum_j phat_j(t_k)^2, with the orthonormal
polynomials phat_j evaluated by the same recurrence, so small tail weights
are accurate to relative round-off rather than only relative to the largest
weight.

`orthonormal_polys` evaluates those polynomials and their derivatives; the
Galerkin basis of `spectral` is built from them.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import IntegrationFailureError, ResourceError

MAX_ORDER = 200


def gamma_moment(a: float, k: int) -> float:
    """Closed form 2^(s-1) Gamma(s), s = (a+k+1)/2, of the half-line moment
    integral of t^(a+k) e^(-t^2/2); inf where it exceeds the double range."""
    s = 0.5 * (a + k + 1.0)
    try:
        return 2.0 ** (s - 1.0) * math.gamma(s)
    except OverflowError:  # Gamma(s) alone passes the double range
        return math.inf


def _check_order(order: int):
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > MAX_ORDER:
        raise ResourceError(f"per-axis order {order} exceeds the cap {MAX_ORDER}")


def _jacobi_recurrence(a: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Monic recurrence of the probability measure proportional to
    (1+x)^a on [-1, 1] (Jacobi weight with exponents 0 and a)."""
    n = np.arange(m, dtype=float)
    c = 2.0 * n + a
    alpha = np.empty(m)
    alpha[0] = a / (a + 2.0)
    alpha[1:] = a * a / (c[1:] * (c[1:] + 2.0))
    beta = np.empty(m)
    beta[0] = 1.0
    beta[1:] = (4.0 * n[1:] ** 2 * (n[1:] + a) ** 2
                / (c[1:] ** 2 * (c[1:] ** 2 - 1.0)))
    return alpha, beta


def halfline_recurrence(a: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Three-term recurrence (alpha_k, beta_k) for t^a e^(-t^2/2) on (0, inf).

    Discretized Lanczos (Gautschi 2004, sec. 2.2; Gragg and Harrod 1984):
    the M-point Gauss-Jacobi rule for t^a on [0, T] times e^(-t^2/2) is a
    discrete measure whose first `order` recurrence terms agree with the
    continuous ones to round-off, because T lies beyond the decay of
    t^(a+2 order-1) e^(-t^2/2) and M resolves e^(-t^2/2) on [0, T] to
    double precision.  Lanczos with full reorthogonalization on that
    measure gives alpha_k, beta_k; beta_0 is the exact mass.
    """
    _check_order(order)
    mass = gamma_moment(a, 0)
    if not math.isfinite(mass):
        raise IntegrationFailureError(
            f"normalization is not positive/finite: the mass of "
            f"t^{a} e^(-t^2/2) on (0, inf) overflows double precision")
    # T must cover the tail of the highest-degree integrand: covering only
    # the peak of t^(a+2 order-1) e^(-t^2/2) leaves the last beta wrong
    # at ~1e-5 while every moment still matches
    T = math.sqrt(4.0 * order + 2.0 * a + 4.0) + 10.0
    m = order + int(T * T / 4.0) + 20
    # Christoffel sums of the deepest nodes overflow: those weights are
    # below the double range relative to the total and come out 0
    with np.errstate(over="ignore"):
        x, q = _golub_welsch(*_jacobi_recurrence(a, m))
    t = 0.5 * T * (1.0 + x)
    q = q * np.exp(-0.5 * t * t)
    # orthonormal Lanczos basis, one row per step
    Q = np.zeros((order, m))
    Q[0] = np.sqrt(q / q.sum())
    alpha = np.empty(order)
    beta = np.empty(order)
    beta[0] = mass
    for k in range(order):
        v = t * Q[k]
        alpha[k] = Q[k] @ v
        if k + 1 < order:
            # full reorthogonalization, two classical Gram-Schmidt passes
            # against every earlier vector (the first removes the three-term
            # part alpha_k q_k + sqrt(beta_k) q_(k-1))
            for _ in range(2):
                v -= (Q[:k + 1] @ v) @ Q[:k + 1]
            beta[k + 1] = v @ v
            Q[k + 1] = v / math.sqrt(beta[k + 1])
    return alpha, beta


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
